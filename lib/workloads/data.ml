module Ast = Trips_tir.Ast
module Ty = Trips_tir.Ty
module Rng = Trips_util.Rng

let ints name ?(seed = 0x5EEDL) ?(lo = 0) ?(hi = 255) n =
  let rng = Rng.create (Int64.add seed (Int64.of_int (Hashtbl.hash name))) in
  let init = Ast.Init.init Ty.W8 n (fun _ -> Int64.of_int (Rng.int_in rng lo hi)) in
  Ast.global name ~init (n * 8)

let ints_f name n f =
  let init = Ast.Init.init Ty.W8 n f in
  Ast.global name ~init (n * 8)

let floats name ?(seed = 0xF10A7L) ?(scale = 1.0) n =
  let rng = Rng.create (Int64.add seed (Int64.of_int (Hashtbl.hash name))) in
  let init = Ast.Init.init Ty.W8 n (fun _ -> Int64.bits_of_float (Rng.float rng scale)) in
  Ast.global name ~init (n * 8)

let floats_f name n f =
  let init = Ast.Init.init Ty.W8 n (fun k -> Int64.bits_of_float (f k)) in
  Ast.global name ~init (n * 8)

let bytes_ name ?(seed = 0xB17E5L) n =
  let rng = Rng.create (Int64.add seed (Int64.of_int (Hashtbl.hash name))) in
  let init = Ast.Init.init Ty.W1 n (fun _ -> Int64.of_int (Rng.int rng 256)) in
  Ast.global name ~init n

let zeros name n = Ast.global name (n * 8)

open Ast.Infix

let elt8 gname k = g gname +: (k <<: i 3)
let elt1 gname k = g gname +: k
