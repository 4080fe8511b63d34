(* Core_ref.run statistics per workload at preset C, which the
   optimized Core.run must reproduce exactly (test_sim_parity.ml).
   Re-record: TRIPS_GOLDEN_RECORD=test dune exec test/test_sim_parity.exe *)

let sim = [
  ("ct", "cycles=60701 blocks=3138 branch_mispredicts=75 callret_mispredicts=0 dcache_misses=1540 load_flushes=0");
  ("conv", "cycles=62032 blocks=6362 branch_mispredicts=14 callret_mispredicts=0 dcache_misses=128 load_flushes=0");
  ("vadd", "cycles=21719 blocks=1101 branch_mispredicts=9 callret_mispredicts=0 dcache_misses=2304 load_flushes=0");
  ("matrix", "cycles=192369 blocks=22820 branch_mispredicts=53 callret_mispredicts=0 dcache_misses=384 load_flushes=0");
  ("fmradio", "cycles=380013 blocks=44365 branch_mispredicts=13 callret_mispredicts=4 dcache_misses=137 load_flushes=0");
  ("802.11a", "cycles=70873 blocks=7169 branch_mispredicts=9 callret_mispredicts=0 dcache_misses=136 load_flushes=0");
  ("8b10b", "cycles=809639 blocks=39907 branch_mispredicts=3989 callret_mispredicts=8192 dcache_misses=64 load_flushes=0");
  ("a2time", "cycles=143549 blocks=3916 branch_mispredicts=1558 callret_mispredicts=0 dcache_misses=256 load_flushes=0");
  ("rspeed", "cycles=185624 blocks=4613 branch_mispredicts=136 callret_mispredicts=0 dcache_misses=512 load_flushes=0");
  ("ospf", "cycles=1021435 blocks=38919 branch_mispredicts=1665 callret_mispredicts=0 dcache_misses=300 load_flushes=0");
  ("routelookup", "cycles=1037662 blocks=53358 branch_mispredicts=12303 callret_mispredicts=0 dcache_misses=926 load_flushes=0");
  ("autocor", "cycles=107922 blocks=12221 branch_mispredicts=66 callret_mispredicts=0 dcache_misses=128 load_flushes=0");
  ("conven", "cycles=167034 blocks=8196 branch_mispredicts=8 callret_mispredicts=0 dcache_misses=32 load_flushes=0");
  ("fbital", "cycles=3001735 blocks=89022 branch_mispredicts=1669 callret_mispredicts=0 dcache_misses=32 load_flushes=0");
  ("fft", "cycles=34629 blocks=2570 branch_mispredicts=62 callret_mispredicts=0 dcache_misses=96 load_flushes=0");
  ("viterb", "cycles=670138 blocks=63452 branch_mispredicts=2088 callret_mispredicts=0 dcache_misses=132 load_flushes=0");
  ("aifftr", "cycles=38138 blocks=2704 branch_mispredicts=56 callret_mispredicts=0 dcache_misses=96 load_flushes=0");
  ("aifirf", "cycles=194303 blocks=20241 branch_mispredicts=7 callret_mispredicts=0 dcache_misses=259 load_flushes=0");
  ("basefp", "cycles=8000 blocks=386 branch_mispredicts=6 callret_mispredicts=0 dcache_misses=128 load_flushes=0");
  ("bitmnp", "cycles=166517 blocks=12290 branch_mispredicts=11 callret_mispredicts=0 dcache_misses=256 load_flushes=0");
  ("canrdr", "cycles=128269 blocks=5722 branch_mispredicts=479 callret_mispredicts=0 dcache_misses=1119 load_flushes=0");
  ("idctrn", "cycles=560071 blocks=61921 branch_mispredicts=848 callret_mispredicts=0 dcache_misses=400 load_flushes=0");
  ("iirflt", "cycles=135032 blocks=5633 branch_mispredicts=12 callret_mispredicts=0 dcache_misses=512 load_flushes=0");
  ("matrix01", "cycles=495581 blocks=60025 branch_mispredicts=365 callret_mispredicts=0 dcache_misses=96 load_flushes=0");
  ("pntrch", "cycles=533600 blocks=9942 branch_mispredicts=407 callret_mispredicts=0 dcache_misses=178 load_flushes=0");
  ("puwmod", "cycles=300350 blocks=12271 branch_mispredicts=212 callret_mispredicts=0 dcache_misses=8 load_flushes=0");
  ("tblook", "cycles=88308 blocks=4098 branch_mispredicts=23 callret_mispredicts=0 dcache_misses=528 load_flushes=0");
  ("ttsprk", "cycles=195819 blocks=5815 branch_mispredicts=1168 callret_mispredicts=0 dcache_misses=777 load_flushes=0");
  ("cjpeg", "cycles=375764 blocks=33685 branch_mispredicts=1076 callret_mispredicts=0 dcache_misses=344 load_flushes=0");
  ("djpeg", "cycles=266639 blocks=31122 branch_mispredicts=383 callret_mispredicts=0 dcache_misses=329 load_flushes=0");
  ("rgbcmy", "cycles=121799 blocks=8193 branch_mispredicts=12 callret_mispredicts=0 dcache_misses=384 load_flushes=0");
  ("rgbyiq", "cycles=101528 blocks=4098 branch_mispredicts=3 callret_mispredicts=0 dcache_misses=384 load_flushes=0");
  ("pktflow", "cycles=88981 blocks=4094 branch_mispredicts=168 callret_mispredicts=0 dcache_misses=8856 load_flushes=0");
  ("bezier", "cycles=78736 blocks=5186 branch_mispredicts=77 callret_mispredicts=0 dcache_misses=64 load_flushes=0");
  ("dither", "cycles=556492 blocks=20546 branch_mispredicts=2018 callret_mispredicts=0 dcache_misses=1057 load_flushes=0");
  ("rotate", "cycles=553682 blocks=14597 branch_mispredicts=4911 callret_mispredicts=0 dcache_misses=64 load_flushes=0");
  ("text", "cycles=784577 blocks=19169 branch_mispredicts=1247 callret_mispredicts=0 dcache_misses=2048 load_flushes=0");
  ("bzip2", "cycles=120826024 blocks=4186679 branch_mispredicts=32665 callret_mispredicts=0 dcache_misses=288 load_flushes=0");
  ("crafty", "cycles=1486225 blocks=100736 branch_mispredicts=20 callret_mispredicts=8194 dcache_misses=512 load_flushes=0");
  ("gcc", "cycles=2842185 blocks=61079 branch_mispredicts=5953 callret_mispredicts=0 dcache_misses=18914 load_flushes=0");
  ("gzip", "cycles=1513718 blocks=48245 branch_mispredicts=449 callret_mispredicts=0 dcache_misses=224 load_flushes=0");
  ("mcf", "cycles=887287 blocks=24840 branch_mispredicts=21 callret_mispredicts=0 dcache_misses=32763 load_flushes=0");
  ("parser", "cycles=1047691 blocks=36029 branch_mispredicts=1614 callret_mispredicts=3148 dcache_misses=514 load_flushes=0");
  ("perlbmk", "cycles=1460133 blocks=91064 branch_mispredicts=17746 callret_mispredicts=0 dcache_misses=1883 load_flushes=0");
  ("twolf", "cycles=3551819 blocks=198670 branch_mispredicts=22235 callret_mispredicts=20003 dcache_misses=128 load_flushes=0");
  ("vortex", "cycles=418583 blocks=12366 branch_mispredicts=1109 callret_mispredicts=517 dcache_misses=842 load_flushes=0");
  ("vpr", "cycles=10408922 blocks=680952 branch_mispredicts=15630 callret_mispredicts=0 dcache_misses=18508 load_flushes=24");
  ("applu", "cycles=493763 blocks=42489 branch_mispredicts=1042 callret_mispredicts=0 dcache_misses=3267 load_flushes=0");
  ("apsi", "cycles=92314 blocks=6146 branch_mispredicts=23 callret_mispredicts=0 dcache_misses=1536 load_flushes=0");
  ("art", "cycles=904877 blocks=40847 branch_mispredicts=1458 callret_mispredicts=0 dcache_misses=576 load_flushes=0");
  ("equake", "cycles=416890 blocks=30996 branch_mispredicts=32 callret_mispredicts=0 dcache_misses=106967 load_flushes=0");
  ("mesa", "cycles=317662 blocks=9734 branch_mispredicts=2313 callret_mispredicts=0 dcache_misses=1334 load_flushes=0");
  ("mgrid", "cycles=589707 blocks=45748 branch_mispredicts=92 callret_mispredicts=3 dcache_misses=5460 load_flushes=0");
  ("swim", "cycles=523344 blocks=55348 branch_mispredicts=523 callret_mispredicts=0 dcache_misses=58022 load_flushes=0");
  ("wupwise", "cycles=85794 blocks=5635 branch_mispredicts=17 callret_mispredicts=0 dcache_misses=1285 load_flushes=0");
]
