(* Independent checks of every partition the program returns.

   They read only the netlist the benchmark generated and wrote (unit
   areas, unit weights) and the assignment and cut the program reported;
   they call nothing of the program's, so a fault in its own cut or
   balance code cannot hide here.  Each check returns the list of its
   complaints; an operation passes when the list is empty. *)

(* Every module has one part id, in range. *)
let parts ~(nl : Gen.netlist) ~k side =
  if Array.length side <> nl.modules then
    [ Printf.sprintf "%d part ids for %d modules" (Array.length side) nl.modules ]
  else
    match Array.find_opt (fun p -> p < 0 || p >= k) side with
    | Some p -> [ Printf.sprintf "part id %d outside 0..%d" p (k - 1) ]
    | None -> []

let recount (nl : Gen.netlist) side =
  Array.fold_left
    (fun acc e ->
      let p = side.(e.(0)) in
      if Array.exists (fun v -> side.(v) <> p) e then acc + 1 else acc)
    0 nl.nets

let cut_matches nl side ~cut =
  let c = recount nl side in
  if c = cut then [] else [ Printf.sprintf "reported cut %d, recount %d" cut c ]

let areas ~k side =
  let a = Array.make k 0 in
  Array.iter (fun p -> a.(p) <- a.(p) + 1) side;
  a

(* Bipartition bound (documented at Bipartition.bounds): side 0 within
   A/2 +- max (A(v_max), r A / 2), clamped; unit areas give A(v_max) = 1. *)
let bisection_window ~tol total =
  let half = total / 2 in
  let slack = max 1 (int_of_float (tol *. float_of_int total /. 2.)) in
  (max 0 (half - slack), min total (half + slack + (total mod 2)))

(* k-way bound (documented at Kpartition.bounds): every part within
   A/k +- max (A(v_max), r A / k), plus k of rounding room. *)
let kway_window ~tol ~k total =
  let share = total / k in
  let slack = max 1 (int_of_float (tol *. float_of_int total /. float_of_int k)) in
  (max 0 (share - slack), min total (share + slack + k))

let within what (lo, hi) a =
  if a >= lo && a <= hi then []
  else [ Printf.sprintf "%s area %d outside [%d, %d]" what a lo hi ]

let balance_bisection ~tol side =
  let a = areas ~k:2 side in
  within "side 0" (bisection_window ~tol (Array.length side)) a.(0)

let balance_kway ~tol ~k side =
  let a = areas ~k side in
  let w = kway_window ~tol ~k (Array.length side) in
  List.concat (List.init k (fun p -> within (Printf.sprintf "part %d" p) w a.(p)))

(* Recursive bisection: parts [lo, lo + n) split into [lo, lo + n/2) and
   the rest, each split held to the bipartition bound of its own area. *)
let balance_rb ~tol ~k side =
  let a = areas ~k side in
  let sum lo n = Array.fold_left ( + ) 0 (Array.sub a lo n) in
  let rec node lo n =
    if n = 1 then []
    else
      let mid = n / 2 in
      let total = sum lo n in
      within
        (Printf.sprintf "parts %d-%d of %d-%d" lo (lo + mid - 1) lo (lo + n - 1))
        (bisection_window ~tol total) (sum lo mid)
      @ node lo mid
      @ node (lo + mid) (n - mid)
  in
  node 0 k

(* A real partitioner beats a coin by far on these netlists. *)
let beats_random nl ~k ~cut =
  let limit = Gen.random_cut nl ~k /. 2. in
  if float_of_int cut < limit then []
  else [ Printf.sprintf "cut %d not below half the random cut %.1f" cut limit ]

type rule = Bisection of float | Kway of float | Rb of float

let partition nl ~k ~rule side ~cut =
  match parts ~nl ~k side with
  | _ :: _ as bad -> bad
  | [] ->
      cut_matches nl side ~cut
      @ (match rule with
        | Bisection tol -> balance_bisection ~tol side
        | Kway tol -> balance_kway ~tol ~k side
        | Rb tol -> balance_rb ~tol ~k side)
      @ beats_random nl ~k ~cut

(* Serve: the daemon must answer [ok], and a request that repeats
   (netlist, seed, starts, tolerance) must get the cut it got before, so a
   cache hit equals the cold run. *)
let status_ok status = if status = "ok" then [] else [ "status " ^ status ]

let same_as_before seen key ~cut =
  match Hashtbl.find_opt seen key with
  | None ->
      Hashtbl.add seen key cut;
      []
  | Some c when c = cut -> []
  | Some c -> [ Printf.sprintf "cut %d, but %d for the same request before" cut c ]

(* Self-test: each check must reject a result corrupted to break exactly
   the property it guards.  Returns the names of checks that let their
   corruption through. *)
let self_test () =
  let modules = 2000 in
  let nl = Gen.rent ~seed:7 { (Gen.spec "s9234") with modules; nets = 2000; pins = 6000 } in
  let good k = Array.init modules (fun v -> v * k / modules) in
  let cut s = recount nl s in
  let rejects name got = if got = [] then [ name ] else [] in
  let corrupt f s = let s = Array.copy s in f s; s in
  let s2 = good 2 and s4 = good 4 in
  let lopsided k = corrupt (fun s -> Array.fill s 0 (modules * 3 / 4) 0) (good k) in
  let random k =
    let r = Gen.rng 3 in
    Array.init modules (fun _ -> Gen.int r k)
  in
  let check ~k ~rule s ~cut = partition nl ~k ~rule s ~cut in
  let accepts = [ check ~k:2 ~rule:(Bisection 0.1) s2 ~cut:(cut s2);
                  check ~k:4 ~rule:(Kway 0.1) s4 ~cut:(cut s4);
                  check ~k:4 ~rule:(Rb 0.1) s4 ~cut:(cut s4) ] in
  (if List.exists (( <> ) []) accepts then [ "accepts the planted split" ] else [])
  @ rejects "length" (check ~k:2 ~rule:(Bisection 0.1) (Array.sub s2 0 10) ~cut:0)
  @ rejects "part range" (check ~k:2 ~rule:(Bisection 0.1)
                            (corrupt (fun s -> s.(5) <- 2) s2) ~cut:(cut s2))
  @ rejects "cut recount" (check ~k:4 ~rule:(Kway 0.1) s4 ~cut:(cut s4 - 1))
  @ rejects "bisection balance" (balance_bisection ~tol:0.1 (lopsided 2))
  @ rejects "k-way balance" (balance_kway ~tol:0.1 ~k:4 (lopsided 4))
  @ rejects "rb balance"
      (balance_rb ~tol:0.1 ~k:4
         (corrupt (fun s -> Array.fill s (modules / 2) 300 1) s4))
  @ rejects "random cut" (beats_random nl ~k:4 ~cut:(cut (random 4)))
  @ rejects "status" (status_ok "degraded")
  @ rejects "repeat"
      (let seen = Hashtbl.create 1 in
       ignore (same_as_before seen "r" ~cut:5);
       same_as_before seen "r" ~cut:6)
