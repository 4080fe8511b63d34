(* Sampled.run estimates per workload at preset C (see the
   sampled_golden suite in test_sim_parity.ml).  Regenerate only if
   the estimator or the model is meant to change:
   TRIPS_SAMPLED_GOLDEN_RECORD=test/sampled_golden.ml
   dune exec test/test_sim_parity.exe *)

(* name, es_cycles, es_ci95, es_intervals, es_measured_blocks,
   es_total_blocks, es_full *)
let per_workload = [
  ("ct", 0x1.da3ap+15, 0x0p+0, 0, 3138, 3138, true);
  ("conv", 0x1.e4ap+15, 0x0p+0, 0, 6362, 6362, true);
  ("vadd", 0x1.535cp+14, 0x0p+0, 0, 1101, 1101, true);
  ("matrix", 0x1.77b88p+17, 0x0p+0, 0, 22820, 22820, true);
  ("fmradio", 0x1.70de052e8ba3p+18, 0x1.756268ba2e8bbp+12, 44, 3520, 44365, false);
  ("802.11a", 0x1.14d9p+16, 0x0p+0, 0, 7169, 7169, true);
  ("8b10b", 0x1.900d93be5be5dp+19, 0x1.19af3332ab2edp+16, 39, 3120, 39907, false);
  ("a2time", 0x1.185e8p+17, 0x0p+0, 0, 3916, 3916, true);
  ("rspeed", 0x1.6a8cp+17, 0x0p+0, 0, 4613, 4613, true);
  ("ospf", 0x1.f8f40cdcf7ea7p+19, 0x1.aa37fa5d18aadp+14, 38, 3040, 38919, false);
  ("routelookup", 0x1.03f46481f81f9p+20, 0x1.604cb50d1338p+15, 52, 4160, 53358, false);
  ("autocor", 0x1.a592p+16, 0x0p+0, 0, 12221, 12221, true);
  ("conven", 0x1.463dp+17, 0x0p+0, 0, 8196, 8196, true);
  ("fbital", 0x1.6ef127ec944dcp+21, 0x1.8cffaa73c5c33p+14, 87, 6960, 89022, false);
  ("fft", 0x1.0e8ap+15, 0x0p+0, 0, 2570, 2570, true);
  ("viterb", 0x1.4aaff84210842p+19, 0x1.8f1acb3eb868dp+14, 62, 4960, 63452, false);
  ("aifftr", 0x1.29f4p+15, 0x0p+0, 0, 2704, 2704, true);
  ("aifirf", 0x1.7b7f8p+17, 0x0p+0, 0, 20241, 20241, true);
  ("basefp", 0x1.f4p+12, 0x0p+0, 0, 386, 386, true);
  ("bitmnp", 0x1.453a8p+17, 0x0p+0, 0, 12290, 12290, true);
  ("canrdr", 0x1.f50dp+16, 0x0p+0, 0, 5722, 5722, true);
  ("idctrn", 0x1.1132b0e29f79dp+19, 0x1.7fdb81658b251p+12, 61, 4880, 61921, false);
  ("iirflt", 0x1.07bcp+17, 0x0p+0, 0, 5633, 5633, true);
  ("matrix01", 0x1.df6d522b63cbdp+18, 0x1.72e475e948b56p+12, 59, 4720, 60025, false);
  ("pntrch", 0x1.048cp+19, 0x0p+0, 0, 9942, 9942, true);
  ("puwmod", 0x1.254f8p+18, 0x0p+0, 0, 12271, 12271, true);
  ("tblook", 0x1.58f4p+16, 0x0p+0, 0, 4098, 4098, true);
  ("ttsprk", 0x1.7e758p+17, 0x0p+0, 0, 5815, 5815, true);
  ("cjpeg", 0x1.734edbfffffffp+18, 0x1.f25758d7c917fp+15, 33, 2640, 33685, false);
  ("djpeg", 0x1.06acda876ea86p+18, 0x1.516d7796f2cfep+13, 31, 2480, 31122, false);
  ("rgbcmy", 0x1.dbc7p+16, 0x0p+0, 0, 8193, 8193, true);
  ("rgbyiq", 0x1.8c98p+16, 0x0p+0, 0, 4098, 4098, true);
  ("pktflow", 0x1.5b95p+16, 0x0p+0, 0, 4094, 4094, true);
  ("bezier", 0x1.339p+16, 0x0p+0, 0, 5186, 5186, true);
  ("dither", 0x1.0fb98p+19, 0x0p+0, 0, 20546, 20546, true);
  ("rotate", 0x1.0e5a4p+19, 0x0p+0, 0, 14597, 14597, true);
  ("text", 0x1.7f182p+19, 0x0p+0, 0, 19169, 19169, true);
  ("bzip2", 0x1.cba297f0bd92bp+26, 0x1.7a693146ad6f9p+19, 4089, 327120, 4186679, false);
  ("crafty", 0x1.6b2e1cf62c7a2p+20, 0x1.336b878ffe51dp+14, 99, 7920, 100736, false);
  ("gcc", 0x1.5c00a700da741p+21, 0x1.11a6723d04aa6p+15, 60, 4800, 61079, false);
  ("gzip", 0x1.6f1719df51b3bp+20, 0x1.f2c249ebf7ba5p+13, 47, 3760, 48245, false);
  ("mcf", 0x1.afb5d147ae147p+19, 0x1.0be1aad97a25fp+16, 25, 2000, 24840, false);
  ("parser", 0x1.fd61d61c71c72p+19, 0x1.7975535f60edbp+15, 36, 2880, 36029, false);
  ("perlbmk", 0x1.658c6dfc8c5e4p+20, 0x1.18c6e2af51418p+15, 89, 7120, 91064, false);
  ("twolf", 0x1.b5b1188fd5c5dp+21, 0x1.0bf47b76e104ap+16, 194, 15520, 198670, false);
  ("vortex", 0x1.98c5cp+18, 0x0p+0, 0, 12366, 12366, true);
  ("vpr", 0x1.3d4e587ece7e2p+23, 0x1.1faa2ae074bdep+16, 665, 53200, 680952, false);
  ("applu", 0x1.e49e3083a83a9p+18, 0x1.55b16823ff96p+14, 42, 3360, 42489, false);
  ("apsi", 0x1.689ap+16, 0x0p+0, 0, 6146, 6146, true);
  ("art", 0x1.b502820cccccbp+19, 0x1.a78edb9c20e8dp+14, 40, 3200, 40847, false);
  ("equake", 0x1.9169bd1c13d1bp+18, 0x1.838866920e548p+15, 31, 2480, 30996, false);
  ("mesa", 0x1.36378p+18, 0x0p+0, 0, 9734, 9734, true);
  ("mgrid", 0x1.2097d7d27d27bp+19, 0x1.02e12a86bb861p+15, 45, 3600, 45748, false);
  ("swim", 0x1.028afbbbbbbbap+19, 0x1.bb0bd4f6a5eaap+14, 54, 4320, 55348, false);
  ("wupwise", 0x1.4f22p+16, 0x0p+0, 0, 5635, 5635, true);
]
