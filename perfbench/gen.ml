(* Benchmark inputs, made by the benchmark's own code so that a change to
   the program's generator can never change what the benchmark measures.

   The netlists mimic the repository's Table I stand-ins: unit areas, unit
   net weights, and Rent-style locality — the module index range is split
   recursively into halves and each net is drawn inside a block chosen
   with a bias towards small blocks.  That plants a good k-way split along
   index blocks, whose cut {!planted_cut} reports as a reference. *)

(* SplitMix64: tiny, seedable, and identical on every platform. *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.

(* A positive seed derived from a list of integers (workload seed, round,
   input index, ...), so every operation of a schedule gets its own. *)
let derive parts =
  let r = rng 0x5EED in
  List.iter (fun p -> r.s <- Int64.logxor (next r) (Int64.of_int p)) parts;
  1 + (Int64.to_int (next r) land 0x3FFFFFFF)

type spec = { circuit : string; modules : int; nets : int; pins : int }

(* Published sizes of the Table I circuits the workloads use. *)
let spec circuit =
  let modules, nets, pins =
    match circuit with
    | "test06" -> (1752, 1541, 6638)
    | "struct" -> (1952, 1920, 5471)
    | "test05" -> (2595, 2750, 10076)
    | "19ks" -> (2844, 3282, 10547)
    | "primary2" -> (3014, 3029, 11219)
    | "s9234" -> (5866, 5844, 14065)
    | "biomed" -> (6514, 5742, 21040)
    | "s13207" -> (8772, 8651, 20606)
    | "s15850" -> (10470, 10383, 24712)
    | "industry2" -> (12637, 13419, 48404)
    | "s35932" -> (18148, 17828, 48145)
    | "s38584" -> (20995, 20717, 55203)
    | "avqsmall" -> (21918, 22124, 76231)
    | "s38417" -> (23849, 23843, 57613)
    | "avqlarge" -> (25178, 25384, 82751)
    | c -> invalid_arg ("Gen.spec: no size for " ^ c)
  in
  { circuit; modules; nets; pins }

type netlist = {
  name : string;
  modules : int;
  nets : int array array;  (** 0-based pins; unit areas and weights *)
}

let locality = 0.9
let max_net_size = 24

(* Net size 2 + geometric, capped, with the mean pins/nets. *)
let net_size r ~mean =
  let excess = Float.max 0. (mean -. 2.) in
  let p = 1. /. (1. +. excess) in
  let rec draw acc =
    if acc >= max_net_size - 2 || float r < p then acc else draw (acc + 1)
  in
  2 + draw 0

let rent ~seed (s : spec) =
  let r = rng seed in
  let mean = float_of_int s.pins /. float_of_int s.nets in
  let rec block size lo hi =
    let span = hi - lo in
    if span <= max (4 * size) 8 || float r >= locality then (lo, hi)
    else
      let mid = lo + (span / 2) in
      if int r 2 = 0 then block size lo mid else block size mid hi
  in
  let seen = Hashtbl.create 64 in
  let nets =
    Array.init s.nets (fun _ ->
        let size = net_size r ~mean in
        let lo, hi = block size 0 s.modules in
        Hashtbl.reset seen;
        let pins = ref [] in
        while Hashtbl.length seen < size do
          let v = lo + int r (hi - lo) in
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            pins := v :: !pins
          end
        done;
        Array.of_list !pins)
  in
  { name = s.circuit; modules = s.modules; nets }

let num_pins nl = Array.fold_left (fun acc e -> acc + Array.length e) 0 nl.nets

(* hMETIS text: "<nets> <modules>", then one 1-based pin list per line. *)
let to_hgr nl =
  let b = Buffer.create (8 * (num_pins nl + Array.length nl.nets)) in
  Printf.bprintf b "%d %d\n" (Array.length nl.nets) nl.modules;
  Array.iter
    (fun e ->
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int (v + 1)))
        e;
      Buffer.add_char b '\n')
    nl.nets;
  Buffer.contents b

(* Cut of the planted split: module v in part v * k / modules. *)
let planted_cut nl ~k =
  let part v = v * k / nl.modules in
  Array.fold_left
    (fun acc e ->
      let p = part e.(0) in
      if Array.exists (fun v -> part v <> p) e then acc + 1 else acc)
    0 nl.nets

(* Expected cut of a uniformly random k-way assignment:
   sum over nets of w(e) (1 - k^(1 - |e|)). *)
let random_cut nl ~k =
  Array.fold_left
    (fun acc e ->
      acc +. (1. -. (float_of_int k ** float_of_int (1 - Array.length e))))
    0. nl.nets
