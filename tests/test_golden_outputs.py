"""Every file a fixed CLI script writes, pinned by sha256.

The README promises byte-identical outputs for fixed seeds; this test holds the
package to that promise across changes. The script covers every subcommand
but ``score``, whose losses go through ``np.log`` and may round differently on
another CPU. No output holds a wall time: the CLI only prints the seconds it
measured. A change that alters an output on purpose re-records the pins below
and says why.
"""

import hashlib

from multigoal.cli import main

GOALS = "world.goals.csv"  # 0.5,4.5 / 5.5,10.5 / 13.5,7.5 / 4.5,20.5 / 21.5,14.5
SCRIPT = [
    ["gen-map", "--seed", 7, "--width", 24, "--height", 24, "--out", "world.map",
     "--goals", 5, "--min-sep", 4],
    ["gen-map", "--seed", 8, "--width", 20, "--height", 16, "--out", "world.pgm",
     "--goals", 3, "--goals-out", "pgm_goals.csv"],
    ["estimate", "--map", "world.map", "--goals", GOALS, "--out-dir", "est_oracle"],
    ["estimate", "--map", "world.map", "--goals", GOALS, "--estimator", "euclidean",
     "--out-dir", "est_euclidean"],
    ["tsp", "--weights", "est_oracle/weights.csv", "--out", "tour.json"],
    ["plan", "--map", "world.map", "--start", "0.5,4.5", "--goal", "13.5,7.5", "--seed", 5,
     "--out-path", "plan_rrt.csv", "--out-stats", "plan_rrt.json"],
    ["plan", "--map", "world.map", "--start", "0.5,4.5", "--goal", "13.5,7.5", "--seed", 5,
     "--algorithm", "rrt-star", "--max-samples", 300, "--out-path", "plan_rrt_star.csv",
     "--out-stats", "plan_rrt_star.json"],
    *(
        ["pipeline", "--map", "world.map", "--goals", GOALS, "--algorithm", algorithm,
         "--seed", 11, "--max-samples", 1000, "--out-dir", f"pipeline_{algorithm}",
         "--svg", f"pipeline_{algorithm}.svg"]
        for algorithm in ("guided", "rrt-star", "euclidean-rrt-star")
    ),
    ["pipeline", "--map", "world.map", "--goals", GOALS, "--estimator", "external:est_oracle",
     "--seed", 11, "--out-dir", "pipeline_external"],
    ["bench", "--scenarios", "simple", "--repeats", 1, "--max-samples", 1000, "--seed", 2,
     "--out-dir", "bench"],
    ["gen-dataset", "--n", 3, "--width", 24, "--height", 24, "--seed", 4, "--validate",
     "--out-dir", "dataset"],
    ["render", "--map", "world.map", "--goals", GOALS, "--mask", "est_oracle/pair_0_1.pgm",
     "--solution-dir", "pipeline_guided", "--out", "render.svg"],
]

SHA256 = {
    "bench/aggregate.csv": "e1b4854b8b66edb4c531f8428cebda553371d45d24c3ec453ab22477e887c14c",
    "bench/results.csv": "fe5c92d37d5226e6f29376b41ea931294d8f1c1ca9270d446585f37adff2fd60",
    "dataset/distances.csv": "24c87488130e6fc69bd0e9537eba2cc26ec38784a9cbc85a9a65c81f1d65169d",
    "dataset/goals/sample_00000.csv": "6d6b093f252ecea782c8e4c2e297187e50109be0d9b83442d41c07c9b7e95cf3",
    "dataset/goals/sample_00001.csv": "6cd5c01fdaedb3786e24286397ecce7022c0bccdd2999226f403c9006a88fbe1",
    "dataset/goals/sample_00002.csv": "4d185e0285adf862136d79ceb025269751d11311ea36e064654d54a2a2fb0303",
    "dataset/manifest.json": "0d02f3414406c88e66180864eb608d73b7f2019ebe6788ade949f74393e41fd6",
    "dataset/maps/sample_00000.map": "b3516fcb34749a24f5f00824851b425708b7c813af80daaaa82bf753d32a0782",
    "dataset/maps/sample_00001.map": "e66763ac127bcd6650e4ebd45b6980b40e83f099ea8985dbab62c0817643a652",
    "dataset/maps/sample_00002.map": "ceaece3b0cf9cd1a346433c4377bd9da2a1d5282414eee7ebee869345119329b",
    "dataset/masks/sample_00000.pgm": "c9c1036b7f42aba3dbb978d529839c28cff7559f7263428e85713e6c6a421f19",
    "dataset/masks/sample_00001.pgm": "e2dd2741b0688ed22e7bbfa947901b0b511f43dc6f56bf4fd5326d5d7afe1ac9",
    "dataset/masks/sample_00002.pgm": "16c1b617e21623fbee1e0e0f5c37d2fb04a570615855bf5a53fa76a7fdd82dda",
    "est_euclidean/distances.csv": "15d81c04a2196d7702db5dcdd4cea2a8b759b142f39fc21ad9af3900d9cedf34",
    "est_euclidean/pair_0_1.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/pair_0_2.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/pair_0_3.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/pair_0_4.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/pair_1_2.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/pair_1_3.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/pair_1_4.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/pair_2_3.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/pair_2_4.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/pair_3_4.pgm": "5b993a4f3ce7bf724f5e28d78edae7a6054e1d233a937a9afe56337b0823b1c6",
    "est_euclidean/weights.csv": "d91634f2c2c68ecf3528c783ff6106ff416625e2349baea1390de30d6add6362",
    "est_oracle/distances.csv": "2c0108dc3c2b0486c10e0fb68f892200b31177aa854d90d56b86a0546616c490",
    "est_oracle/pair_0_1.pgm": "cd077f8590b27e4288b97dfe977b904ed365041ad6e2a0c1dd57f4e60c1e085a",
    "est_oracle/pair_0_2.pgm": "3b49f930637b33033f56c7afcc3bd506e425f58bee38773648ba4f2e30ea2768",
    "est_oracle/pair_0_3.pgm": "a6c3f417a520fe62a5f375d37c8ec426a5e045925eb2a2a3f645024e925c3606",
    "est_oracle/pair_0_4.pgm": "787a926bda1127b81bc496ff234f5479531dbab4ef21c07e0eedfeb961122b8b",
    "est_oracle/pair_1_2.pgm": "3417a7f41f1cf0e774a39f11a249d8b74d3ad17c2d1eb33bbca0d4e98927193d",
    "est_oracle/pair_1_3.pgm": "68b4c91fe3c01c897a94d5bdab3726f185660da30d3314db43cbed1bcf9e2c72",
    "est_oracle/pair_1_4.pgm": "432cd60e8fded0fe32b374e434bcf174daad2f46be57719d6d8b4deb400a3b69",
    "est_oracle/pair_2_3.pgm": "758b7161ddf5d6ff2273e888845a934df04a5399b87673feea1218ab133a6b1a",
    "est_oracle/pair_2_4.pgm": "660235a375c86dd7c7ae7e7478022f685f3b74514123f34ad7c4cbcce74b1029",
    "est_oracle/pair_3_4.pgm": "659dbac4ef969351fbb5059e53b4c567f79958d663e3f4716427b2f7c2f89b27",
    "est_oracle/weights.csv": "cd85ed1e7a919341e779510921a6b807e7bc973dfd7aef927f8bd610167a12df",
    "pgm_goals.csv": "245d44fbda61cfb4b99c6a88af695c4569d93b4476098caa437e7106f945bd05",
    "pipeline_euclidean-rrt-star/leg_00.csv": "895020e7e4e253723210fb3a0a4eb5ce0d0d7b83bdba29e727acdd91c7ca06e4",
    "pipeline_euclidean-rrt-star/leg_01.csv": "a5a19785f6af1493c3c34d6312557cc4d8088d8a2c02c068502e920cbcae4a63",
    "pipeline_euclidean-rrt-star/leg_02.csv": "9d745ad49f71ee41ec2483022775209eb6b771dc0a14e26b863f3068222f26e4",
    "pipeline_euclidean-rrt-star/leg_03.csv": "5dbfb752161440a8bf390dbc1dad5818f93d8f53f4fb4817181993b1e7fb8f00",
    "pipeline_euclidean-rrt-star/leg_04.csv": "e4f9bf35adf7e5be4598ec6dc45f5709d4408631012fdefb9e852ccfa605af52",
    "pipeline_euclidean-rrt-star/solution.json": "70312a2cd065c2b93d9afdba9ee2352a1e0426e782fe41cce893feb477570c03",
    "pipeline_euclidean-rrt-star.svg": "fc7afd4a500f838419851001fe183f8e34b3e95d242672d3bf189b2a85711bbb",
    "pipeline_external/leg_00.csv": "91921bb010c664b800bb1560d42841e4f27ef0c8884510de378170c4d329422c",
    "pipeline_external/leg_01.csv": "4d6980e68cb380cc031ab7f2c13050f03d9eda2bac7b19afb2f393e9caf901f9",
    "pipeline_external/leg_02.csv": "d2dc0900a739e9b7ed38e65be318b77d5cb1f976c02e1c0fcd55955b5447f2f8",
    "pipeline_external/leg_03.csv": "0676c33753ec7bb6667248fe4636e7ae5eaf7726db5409d62231bb2a1372c302",
    "pipeline_external/leg_04.csv": "24f8124d730821f44602e026976ccaac2884d42f755f2a5d00bea41b613627fe",
    "pipeline_external/solution.json": "6c05f7348443e69e3cf6c71b24a8bc01985477346230cd978a7d7c89bb6b5367",
    "pipeline_guided/leg_00.csv": "91921bb010c664b800bb1560d42841e4f27ef0c8884510de378170c4d329422c",
    "pipeline_guided/leg_01.csv": "4d6980e68cb380cc031ab7f2c13050f03d9eda2bac7b19afb2f393e9caf901f9",
    "pipeline_guided/leg_02.csv": "d2dc0900a739e9b7ed38e65be318b77d5cb1f976c02e1c0fcd55955b5447f2f8",
    "pipeline_guided/leg_03.csv": "0676c33753ec7bb6667248fe4636e7ae5eaf7726db5409d62231bb2a1372c302",
    "pipeline_guided/leg_04.csv": "24f8124d730821f44602e026976ccaac2884d42f755f2a5d00bea41b613627fe",
    "pipeline_guided/solution.json": "b3f7da4e3b62f44097648bb1c5d0f0c3c1ad2b67777b7429551e8feac0836594",
    "pipeline_guided.svg": "3d14f8047fefeea212ae72fa218a971c1b708a8bc83eb5d064ddd672258563fe",
    "pipeline_rrt-star/leg_00.csv": "c6da9acb942ea5e13413a252716cabd684b2f680134e02f29cd2a5d4640657d5",
    "pipeline_rrt-star/leg_01.csv": "2665014882f5b77f0ca1a8b11d6bc5bccd694d759a62f376a57088f084640c32",
    "pipeline_rrt-star/leg_02.csv": "5206698503bc9261d4f15ad6156165f701259a7c829abcda447bb302deab1d93",
    "pipeline_rrt-star/leg_03.csv": "fd2054ab4058ced5c5f31be6a8586dcde0d7f484878fcbb004d357f5169bac57",
    "pipeline_rrt-star/leg_04.csv": "46a4d2c28534113846e40804ca850debb4696d1e44b271cf0f12247b6a76273d",
    "pipeline_rrt-star/solution.json": "53ffe44a720e14488e50f9f1fb60967c6cbb521f7c6d9364f8f841026f62572e",
    "pipeline_rrt-star.svg": "f1849581dc1fb3b98a7c27dd936f6d0f20e303231ece441148e58049f5514039",
    "plan_rrt.csv": "54cfed56eb10b678e0bc7183e65977cf45934031ee5af3a7800c72f5c009a68d",
    "plan_rrt.json": "29c58a731d9a7b21b70be68cb7e24e532d130ecaf6ec1064ce099e5c7f57d9ee",
    "plan_rrt_star.csv": "82c3b1a7b07e31e8b9e63d925a07e1823b33d03280e10a4a94e341be137cfc20",
    "plan_rrt_star.json": "02dcdd14f4754e338e456911e84e33b08f7bc718457adde2e9ddaa3dfccf12a7",
    "render.svg": "c877c17007c17d63fbafcdcc068e44f6a6151a5e2131a3a5491c8f236c20aa21",
    "tour.json": "934017d2e80158905fdb06f585d4d5f3efc1ce59c7e4486b2ed041d580857951",
    "world.goals.csv": "8a04910e590353609a19fcd722462f8eb7a9810664aa39d751a07b5b9551b408",
    "world.map": "a51d23b703fe549c746c88c8a3806e2b210edf8aed4b74e46c172e7d5bf0addc",
    "world.pgm": "35092cd4139db04299ad2e1930670876113b3dde0163e7d89d0f39cd045f6ee5",
}


def test_script_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in SCRIPT:
        assert main([str(a) for a in argv]) == 0, (argv, capsys.readouterr().err)
    written = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*")) if p.is_file()
    }
    assert written == SHA256
