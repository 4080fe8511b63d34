(* Static timing predictions per workload at preset C
   (test_static_timing.ml).
   Re-record: TRIPS_GOLDEN_RECORD=test dune exec test/test_static_timing.exe *)

let timing = [
  ("ct", "pr_cycles=66521 pr_blocks=3138 pr_mispredicts=75 findings=14");
  ("conv", "pr_cycles=52917 pr_blocks=6362 pr_mispredicts=14 findings=17");
  ("vadd", "pr_cycles=20261 pr_blocks=1101 pr_mispredicts=9 findings=5");
  ("matrix", "pr_cycles=183792 pr_blocks=22820 pr_mispredicts=53 findings=18");
  ("fmradio", "pr_cycles=355231 pr_blocks=44365 pr_mispredicts=17 findings=10");
  ("802.11a", "pr_cycles=65679 pr_blocks=7169 pr_mispredicts=9 findings=12");
  ("8b10b", "pr_cycles=818447 pr_blocks=39907 pr_mispredicts=12181 findings=7");
  ("a2time", "pr_cycles=138924 pr_blocks=3916 pr_mispredicts=1558 findings=20");
  ("rspeed", "pr_cycles=196900 pr_blocks=4613 pr_mispredicts=136 findings=42");
  ("ospf", "pr_cycles=1036665 pr_blocks=38919 pr_mispredicts=1665 findings=12");
  ("routelookup", "pr_cycles=925444 pr_blocks=53358 pr_mispredicts=12303 findings=2");
  ("autocor", "pr_cycles=99656 pr_blocks=12221 pr_mispredicts=66 findings=11");
  ("conven", "pr_cycles=157823 pr_blocks=8196 pr_mispredicts=8 findings=5");
  ("fbital", "pr_cycles=3716262 pr_blocks=89022 pr_mispredicts=1669 findings=25");
  ("fft", "pr_cycles=25727 pr_blocks=2570 pr_mispredicts=62 findings=12");
  ("viterb", "pr_cycles=617827 pr_blocks=63452 pr_mispredicts=2088 findings=13");
  ("aifftr", "pr_cycles=27505 pr_blocks=2704 pr_mispredicts=56 findings=10");
  ("aifirf", "pr_cycles=162099 pr_blocks=20241 pr_mispredicts=7 findings=13");
  ("basefp", "pr_cycles=4036 pr_blocks=386 pr_mispredicts=6 findings=9");
  ("bitmnp", "pr_cycles=133413 pr_blocks=12290 pr_mispredicts=11 findings=5");
  ("canrdr", "pr_cycles=124349 pr_blocks=5722 pr_mispredicts=479 findings=11");
  ("idctrn", "pr_cycles=511537 pr_blocks=61921 pr_mispredicts=848 findings=10");
  ("iirflt", "pr_cycles=92823 pr_blocks=5633 pr_mispredicts=12 findings=14");
  ("matrix01", "pr_cycles=486768 pr_blocks=60025 pr_mispredicts=365 findings=7");
  ("pntrch", "pr_cycles=489344 pr_blocks=9942 pr_mispredicts=407 findings=6");
  ("puwmod", "pr_cycles=413634 pr_blocks=12271 pr_mispredicts=212 findings=9");
  ("tblook", "pr_cycles=50060 pr_blocks=4098 pr_mispredicts=23 findings=7");
  ("ttsprk", "pr_cycles=185576 pr_blocks=5815 pr_mispredicts=1168 findings=28");
  ("cjpeg", "pr_cycles=343911 pr_blocks=33685 pr_mispredicts=1076 findings=5");
  ("djpeg", "pr_cycles=256861 pr_blocks=31122 pr_mispredicts=383 findings=6");
  ("rgbcmy", "pr_cycles=98906 pr_blocks=8193 pr_mispredicts=12 findings=1");
  ("rgbyiq", "pr_cycles=82056 pr_blocks=4098 pr_mispredicts=3 findings=4");
  ("pktflow", "pr_cycles=70175 pr_blocks=4094 pr_mispredicts=168 findings=16");
  ("bezier", "pr_cycles=78995 pr_blocks=5186 pr_mispredicts=77 findings=21");
  ("dither", "pr_cycles=549191 pr_blocks=20546 pr_mispredicts=2018 findings=13");
  ("rotate", "pr_cycles=562712 pr_blocks=14597 pr_mispredicts=4911 findings=14");
  ("text", "pr_cycles=762635 pr_blocks=19169 pr_mispredicts=1247 findings=17");
  ("bzip2", "pr_cycles=153327117 pr_blocks=4186679 pr_mispredicts=32665 findings=13");
  ("crafty", "pr_cycles=1589477 pr_blocks=100736 pr_mispredicts=8214 findings=17");
  ("gcc", "pr_cycles=2454431 pr_blocks=61079 pr_mispredicts=5953 findings=5");
  ("gzip", "pr_cycles=1430225 pr_blocks=48245 pr_mispredicts=449 findings=1");
  ("mcf", "pr_cycles=657456 pr_blocks=24840 pr_mispredicts=21 findings=12");
  ("parser", "pr_cycles=1227537 pr_blocks=36029 pr_mispredicts=4762 findings=26");
  ("perlbmk", "pr_cycles=1743090 pr_blocks=91064 pr_mispredicts=17746 findings=5");
  ("twolf", "pr_cycles=4321720 pr_blocks=198670 pr_mispredicts=42238 findings=9");
  ("vortex", "pr_cycles=406308 pr_blocks=12366 pr_mispredicts=1626 findings=3");
  ("vpr", "pr_cycles=10274638 pr_blocks=680952 pr_mispredicts=15630 findings=14");
  ("applu", "pr_cycles=482963 pr_blocks=42489 pr_mispredicts=1042 findings=16");
  ("apsi", "pr_cycles=49457 pr_blocks=6146 pr_mispredicts=23 findings=22");
  ("art", "pr_cycles=946618 pr_blocks=40847 pr_mispredicts=1458 findings=15");
  ("equake", "pr_cycles=381412 pr_blocks=30996 pr_mispredicts=32 findings=20");
  ("mesa", "pr_cycles=269461 pr_blocks=9734 pr_mispredicts=2313 findings=18");
  ("mgrid", "pr_cycles=474473 pr_blocks=45748 pr_mispredicts=95 findings=24");
  ("swim", "pr_cycles=457706 pr_blocks=55348 pr_mispredicts=523 findings=16");
  ("wupwise", "pr_cycles=45387 pr_blocks=5635 pr_mispredicts=17 findings=11");
]
