import perfbench

perfbench.use_checkout_source()
