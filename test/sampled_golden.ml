(* Sampled.run estimates per workload at preset C
   (test_sim_parity.ml).
   Re-record: TRIPS_GOLDEN_RECORD=test dune exec test/test_sim_parity.exe *)

let sampled = [
  ("ct", "es_cycles=0x1.da3ap+15 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=3138 es_total_blocks=3138 es_full=true");
  ("conv", "es_cycles=0x1.e4ap+15 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=6362 es_total_blocks=6362 es_full=true");
  ("vadd", "es_cycles=0x1.535cp+14 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=1101 es_total_blocks=1101 es_full=true");
  ("matrix", "es_cycles=0x1.77b88p+17 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=22820 es_total_blocks=22820 es_full=true");
  ("fmradio", "es_cycles=0x1.70de052e8ba3p+18 es_ci95=0x1.756268ba2e8bbp+12 es_intervals=44 es_measured_blocks=3520 es_total_blocks=44365 es_full=false");
  ("802.11a", "es_cycles=0x1.14d9p+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=7169 es_total_blocks=7169 es_full=true");
  ("8b10b", "es_cycles=0x1.900d93be5be5dp+19 es_ci95=0x1.19af3332ab2edp+16 es_intervals=39 es_measured_blocks=3120 es_total_blocks=39907 es_full=false");
  ("a2time", "es_cycles=0x1.185e8p+17 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=3916 es_total_blocks=3916 es_full=true");
  ("rspeed", "es_cycles=0x1.6a8cp+17 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=4613 es_total_blocks=4613 es_full=true");
  ("ospf", "es_cycles=0x1.f8f40cdcf7ea7p+19 es_ci95=0x1.aa37fa5d18aadp+14 es_intervals=38 es_measured_blocks=3040 es_total_blocks=38919 es_full=false");
  ("routelookup", "es_cycles=0x1.03f46481f81f9p+20 es_ci95=0x1.604cb50d1338p+15 es_intervals=52 es_measured_blocks=4160 es_total_blocks=53358 es_full=false");
  ("autocor", "es_cycles=0x1.a592p+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=12221 es_total_blocks=12221 es_full=true");
  ("conven", "es_cycles=0x1.463dp+17 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=8196 es_total_blocks=8196 es_full=true");
  ("fbital", "es_cycles=0x1.6ef127ec944dcp+21 es_ci95=0x1.8cffaa73c5c33p+14 es_intervals=87 es_measured_blocks=6960 es_total_blocks=89022 es_full=false");
  ("fft", "es_cycles=0x1.0e8ap+15 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=2570 es_total_blocks=2570 es_full=true");
  ("viterb", "es_cycles=0x1.4aaff84210842p+19 es_ci95=0x1.8f1acb3eb868dp+14 es_intervals=62 es_measured_blocks=4960 es_total_blocks=63452 es_full=false");
  ("aifftr", "es_cycles=0x1.29f4p+15 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=2704 es_total_blocks=2704 es_full=true");
  ("aifirf", "es_cycles=0x1.7b7f8p+17 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=20241 es_total_blocks=20241 es_full=true");
  ("basefp", "es_cycles=0x1.f4p+12 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=386 es_total_blocks=386 es_full=true");
  ("bitmnp", "es_cycles=0x1.453a8p+17 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=12290 es_total_blocks=12290 es_full=true");
  ("canrdr", "es_cycles=0x1.f50dp+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=5722 es_total_blocks=5722 es_full=true");
  ("idctrn", "es_cycles=0x1.1132b0e29f79dp+19 es_ci95=0x1.7fdb81658b251p+12 es_intervals=61 es_measured_blocks=4880 es_total_blocks=61921 es_full=false");
  ("iirflt", "es_cycles=0x1.07bcp+17 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=5633 es_total_blocks=5633 es_full=true");
  ("matrix01", "es_cycles=0x1.df6d522b63cbdp+18 es_ci95=0x1.72e475e948b56p+12 es_intervals=59 es_measured_blocks=4720 es_total_blocks=60025 es_full=false");
  ("pntrch", "es_cycles=0x1.048cp+19 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=9942 es_total_blocks=9942 es_full=true");
  ("puwmod", "es_cycles=0x1.254f8p+18 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=12271 es_total_blocks=12271 es_full=true");
  ("tblook", "es_cycles=0x1.58f4p+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=4098 es_total_blocks=4098 es_full=true");
  ("ttsprk", "es_cycles=0x1.7e758p+17 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=5815 es_total_blocks=5815 es_full=true");
  ("cjpeg", "es_cycles=0x1.734edbfffffffp+18 es_ci95=0x1.f25758d7c917fp+15 es_intervals=33 es_measured_blocks=2640 es_total_blocks=33685 es_full=false");
  ("djpeg", "es_cycles=0x1.06acda876ea86p+18 es_ci95=0x1.516d7796f2cfep+13 es_intervals=31 es_measured_blocks=2480 es_total_blocks=31122 es_full=false");
  ("rgbcmy", "es_cycles=0x1.dbc7p+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=8193 es_total_blocks=8193 es_full=true");
  ("rgbyiq", "es_cycles=0x1.8c98p+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=4098 es_total_blocks=4098 es_full=true");
  ("pktflow", "es_cycles=0x1.5b95p+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=4094 es_total_blocks=4094 es_full=true");
  ("bezier", "es_cycles=0x1.339p+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=5186 es_total_blocks=5186 es_full=true");
  ("dither", "es_cycles=0x1.0fb98p+19 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=20546 es_total_blocks=20546 es_full=true");
  ("rotate", "es_cycles=0x1.0e5a4p+19 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=14597 es_total_blocks=14597 es_full=true");
  ("text", "es_cycles=0x1.7f182p+19 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=19169 es_total_blocks=19169 es_full=true");
  ("bzip2", "es_cycles=0x1.cba297f0bd92bp+26 es_ci95=0x1.7a693146ad6f9p+19 es_intervals=4089 es_measured_blocks=327120 es_total_blocks=4186679 es_full=false");
  ("crafty", "es_cycles=0x1.6b2e1cf62c7a2p+20 es_ci95=0x1.336b878ffe51dp+14 es_intervals=99 es_measured_blocks=7920 es_total_blocks=100736 es_full=false");
  ("gcc", "es_cycles=0x1.5c00a700da741p+21 es_ci95=0x1.11a6723d04aa6p+15 es_intervals=60 es_measured_blocks=4800 es_total_blocks=61079 es_full=false");
  ("gzip", "es_cycles=0x1.6f1719df51b3bp+20 es_ci95=0x1.f2c249ebf7ba5p+13 es_intervals=47 es_measured_blocks=3760 es_total_blocks=48245 es_full=false");
  ("mcf", "es_cycles=0x1.afb5d147ae147p+19 es_ci95=0x1.0be1aad97a25fp+16 es_intervals=25 es_measured_blocks=2000 es_total_blocks=24840 es_full=false");
  ("parser", "es_cycles=0x1.fd61d61c71c72p+19 es_ci95=0x1.7975535f60edbp+15 es_intervals=36 es_measured_blocks=2880 es_total_blocks=36029 es_full=false");
  ("perlbmk", "es_cycles=0x1.658c6dfc8c5e4p+20 es_ci95=0x1.18c6e2af51418p+15 es_intervals=89 es_measured_blocks=7120 es_total_blocks=91064 es_full=false");
  ("twolf", "es_cycles=0x1.b5b1188fd5c5dp+21 es_ci95=0x1.0bf47b76e104ap+16 es_intervals=194 es_measured_blocks=15520 es_total_blocks=198670 es_full=false");
  ("vortex", "es_cycles=0x1.98c5cp+18 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=12366 es_total_blocks=12366 es_full=true");
  ("vpr", "es_cycles=0x1.3d4e587ece7e2p+23 es_ci95=0x1.1faa2ae074bdep+16 es_intervals=665 es_measured_blocks=53200 es_total_blocks=680952 es_full=false");
  ("applu", "es_cycles=0x1.e49e3083a83a9p+18 es_ci95=0x1.55b16823ff96p+14 es_intervals=42 es_measured_blocks=3360 es_total_blocks=42489 es_full=false");
  ("apsi", "es_cycles=0x1.689ap+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=6146 es_total_blocks=6146 es_full=true");
  ("art", "es_cycles=0x1.b502820cccccbp+19 es_ci95=0x1.a78edb9c20e8dp+14 es_intervals=40 es_measured_blocks=3200 es_total_blocks=40847 es_full=false");
  ("equake", "es_cycles=0x1.9169bd1c13d1bp+18 es_ci95=0x1.838866920e548p+15 es_intervals=31 es_measured_blocks=2480 es_total_blocks=30996 es_full=false");
  ("mesa", "es_cycles=0x1.36378p+18 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=9734 es_total_blocks=9734 es_full=true");
  ("mgrid", "es_cycles=0x1.2097d7d27d27bp+19 es_ci95=0x1.02e12a86bb861p+15 es_intervals=45 es_measured_blocks=3600 es_total_blocks=45748 es_full=false");
  ("swim", "es_cycles=0x1.028afbbbbbbbap+19 es_ci95=0x1.bb0bd4f6a5eaap+14 es_intervals=54 es_measured_blocks=4320 es_total_blocks=55348 es_full=false");
  ("wupwise", "es_cycles=0x1.4f22p+16 es_ci95=0x0p+0 es_intervals=0 es_measured_blocks=5635 es_total_blocks=5635 es_full=true");
]
