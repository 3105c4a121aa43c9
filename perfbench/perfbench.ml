(* The repository's benchmark: one workload at one seed, a fixed schedule
   of operations, every output checked, one JSON result line.

     perfbench.exe --workload bipart|kway|serve --seed N --seconds S
                   --trace 0|1 --mlpart PATH --workdir DIR
     perfbench.exe --self-test
     perfbench.exe --reference --seed N

   [--seconds] fixes how many rounds of the schedule run (rounds of a
   nominal length); elapsed time never decides which operations run, so
   counts and cut totals repeat exactly at a given seed.  See README.md. *)

module H = Mlpart_hypergraph.Hypergraph
module Hgr_io = Mlpart_hypergraph.Hgr_io
module Rng = Mlpart_util.Rng
module Fm = Mlpart_partition.Fm
module Gain_cache = Mlpart_partition.Gain_cache
module Multiway = Mlpart_partition.Multiway
module Match = Mlpart_multilevel.Match
module Ml = Mlpart_multilevel.Ml
module Nlevel = Mlpart_multilevel.Nlevel
module Rb = Mlpart_multilevel.Rb
module Mlw = Mlpart_multilevel.Ml_multiway
module Protocol = Mlpart_serve.Protocol
module Json = Mlpart_obs.Json

(* ---------- the program's entry points, with the CLI's defaults ---------- *)

(* mlpart bipartition: MLc, R = 0.5, T = 35, r = 0.1. *)
let cli_ml =
  { Ml.mlc with ratio = 0.5; threshold = 35;
                engine = { Ml.mlc.engine with Fm.tolerance = 0.1 } }

(* mlpart kpartition -k 4 --engine nlevel|rb|multiway, r = 0.1. *)
let nlevel_config = { Nlevel.default with tolerance = 0.1 }
let multiway_config = { Mlw.default with engine = { Multiway.default with tolerance = 0.1 } }

type engine = Bip | Nlevel_k | Rb_k | Multiway_k

let engine_name = function
  | Bip -> "ml" | Nlevel_k -> "nlevel" | Rb_k -> "rb" | Multiway_k -> "multiway"

let k_of = function Bip -> 2 | Nlevel_k | Rb_k | Multiway_k -> 4

let rule_of = function
  | Bip -> Check.Bisection 0.1
  | Nlevel_k | Multiway_k -> Check.Kway 0.1
  | Rb_k -> Check.Rb 0.1

type outcome = { side : int array; cut : int; counts : (string * int) list }

(* The CLI draws a run's generator as the first split of the seed's. *)
let op_rng seed = Rng.split (Rng.create seed)

let run_op engine h seed =
  let rng = op_rng seed in
  match engine with
  | Bip ->
      let r = Ml.run ~config:cli_ml rng h in
      { side = r.Ml.side; cut = r.Ml.cut; counts = [] }
  | Nlevel_k ->
      let r = Nlevel.run ~config:nlevel_config rng h ~k:4 in
      { side = r.Nlevel.side; cut = r.Nlevel.cut;
        counts = [ ("nlevel.contractions", r.Nlevel.contractions);
                   ("nlevel.moves", r.Nlevel.moves) ] }
  | Rb_k ->
      let r = Rb.run rng h ~k:4 in
      { side = r.Rb.side; cut = r.Rb.cut; counts = [ ("rb.bisections", r.Rb.bisections) ] }
  | Multiway_k ->
      let r = Mlw.run ~config:multiway_config rng h ~k:4 in
      { side = r.Mlw.side; cut = r.Mlw.cut; counts = [] }

(* ---------- per-layer samples ---------- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)
let total name = List.fold_left ( +. ) 0. (get name)

(* Ml.run taken apart through its public phases — hierarchy, FM on the
   coarsest netlist, refine_up — on the same generator, so it returns
   exactly what Ml.run returns. *)
let ml_phases config h rng =
  let hier, ms, alloc = Measure.timed (fun () -> Ml.hierarchy ~config rng h) in
  add "ml.coarsen_ms" ms;
  add "ml.coarsen_alloc_mb" (Measure.mb alloc);
  add "ml.levels" (float_of_int (List.length hier.Mlpart_multilevel.Hierarchy.levels));
  let arena = Fm.create_arena ~h () in
  let init, ms, _ =
    Measure.timed (fun () ->
        Fm.run ~config:config.Ml.engine ~arena rng hier.Mlpart_multilevel.Hierarchy.coarsest)
  in
  add "ml.initial_ms" ms;
  let side, ms, alloc =
    Measure.timed (fun () -> Ml.refine_up config ~arena rng hier init.Fm.side)
  in
  add "ml.refine_ms" ms;
  add "ml.refine_alloc_mb" (Measure.mb alloc);
  { side; cut = Fm.cut_of h side; counts = [] }

(* The traced form of an operation: same call and result, with its
   layers timed. *)
let run_op_traced engine h seed =
  match engine with
  | Bip -> ml_phases cli_ml h (op_rng seed)
  | Nlevel_k | Rb_k | Multiway_k ->
      let r, ms, _ = Measure.timed (fun () -> run_op engine h seed) in
      let e = engine_name engine in
      add (e ^ ".run_ms") ms;
      add (e ^ ".cut_total") (float_of_int r.cut);
      List.iter (fun (name, v) -> add name (float_of_int v)) r.counts;
      r

(* ---------- inputs ---------- *)

type input = { nl : Gen.netlist; path : string; text : string }

let make_input ~dir ~gen_seed ~file circuit =
  let nl = Gen.rent ~seed:gen_seed (Gen.spec circuit) in
  let path = Filename.concat dir (file ^ ".hgr") in
  let text = Gen.to_hgr nl in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  { nl; path; text }

(* Round r of a batch workload partitions its own netlists, drawn from
   (seed, r, circuit): a run averages over as many distinct netlists as
   it has rounds, so no single netlist sets a run's figures.  Serve's hot
   designs are the round-0 netlists. *)
let circuit_input ~dir ~seed ~round circuit =
  make_input ~dir ~gen_seed:(Gen.derive [ seed; round; Hashtbl.hash circuit ])
    ~file:(Printf.sprintf "%s-%d" circuit round) circuit

(* Strict parse and validate, as the CLI loads its input. *)
let load i =
  match Hgr_io.parse_file ~mode:Hgr_io.Strict i.path with
  | Error _ -> failwith (i.path ^ ": strict parse failed")
  | Ok p ->
      let h = p.Hgr_io.hypergraph in
      if H.validate h <> Ok () then failwith (i.path ^ ": invalid hypergraph");
      if H.num_modules h <> i.nl.modules || H.num_nets h <> Array.length i.nl.nets then
        failwith (i.path ^ ": parsed sizes differ from the written ones");
      h

(* Set-up of the batch workloads: load every netlist of the run, median of
   three repetitions.  Netlists are not kept: like a CLI process, an
   operation runs with only its own netlist live (loaded again, untimed),
   so the collector never walks the others and memory reflects one
   operation. *)
let timed_setup inputs =
  Measure.median
    (List.init 3 (fun _ ->
         Gc.full_major ();
         let (), ms, _ = Measure.timed (fun () -> List.iter (fun i -> ignore (load i)) inputs) in
         ms))
  /. 1000.

(* ---------- results ---------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable correct : bool }

let tally = { attempted = 0; failed = 0; correct = true }

let judge what complaints =
  tally.attempted <- tally.attempted + 1;
  if complaints <> [] then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "FAILED %s: %s\n%!" what (String.concat "; " complaints)
  end

let invariant what ok =
  if not ok then begin
    tally.correct <- false;
    Printf.eprintf "INVARIANT BROKEN: %s\n%!" what
  end

let print_result metrics =
  let value v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (value v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    tally.correct tally.attempted tally.failed (String.concat ", " body)

let end_to_end ~setup_s ~ops_per_s ~latencies ~cut_total ~rss =
  [ ("setup_s", setup_s, "s");
    ("ops_per_s", ops_per_s, "1/s");
    ("op_p50_ms", Measure.median latencies, "ms");
    ("op_p90_ms", Measure.quantile 0.9 latencies, "ms");
    ("cut_total", float_of_int cut_total, "nets");
    ("peak_rss_mb", rss, "MB") ]

(* ---------- batch workloads: bipart, kway ---------- *)

let batch_circuits = function
  | `Bipart -> [ "s35932"; "s38584"; "avqsmall"; "s38417"; "avqlarge" ]
  | `Kway -> [ "test06"; "struct"; "test05"; "19ks"; "primary2" ]

let batch_engines = function `Bipart -> [ Bip ] | `Kway -> [ Rb_k; Multiway_k ]

(* nlevel at k = 4 breaks its own balance bound on about one netlist in a
   hundred or two, at every size tried; an operation that fails on some
   seeds only would make the failed share differ from run to run, so the
   seeded netlists go through rb and multiway only.  nlevel stays in every
   round as one operation on a fixed netlist that does not depend on the
   seed, where it breaks the bound every time: a struct-sized stand-in on
   which part 3 ends with area 570 against the window 440..540. *)
let nlevel_fault_input ~dir =
  make_input ~dir ~gen_seed:(Gen.derive [ 66; Hashtbl.hash "struct" ]) ~file:"nlevel-fault"
    "struct"

let nlevel_fault_seed = Gen.derive [ 66; 99 ]

(* Seconds one round (every circuit through every engine) takes on a
   2-core x86 container; [--seconds] is turned into a round count with it. *)
let nominal_round_s = function `Bipart -> 5. | `Kway -> 1.5

(* The rounds' netlists, then (kway) the fixed nlevel netlist. *)
let batch_inputs ~dir ~seed ~rounds w =
  List.concat_map
    (fun round -> List.map (circuit_input ~dir ~seed ~round) (batch_circuits w))
    (List.init rounds Fun.id)
  @ if w = `Kway then [ nlevel_fault_input ~dir ] else []

(* Round r: each of its netlists through every engine of the workload,
   then (kway) nlevel on the fixed netlist. *)
let schedule ~seed ~rounds w =
  let per = List.length (batch_circuits w) in
  List.concat_map
    (fun round ->
      List.concat
        (List.init per (fun c ->
             let i = (round * per) + c in
             List.map
               (fun e -> (i, e, Gen.derive [ seed; i; Hashtbl.hash (engine_name e) ]))
               (batch_engines w)))
      @ if w = `Kway then [ (rounds * per, Nlevel_k, nlevel_fault_seed) ] else [])
    (List.init rounds Fun.id)

(* One pass over the schedule; returns latencies (ms) and cuts in order. *)
let batch_pass ~traced ops inputs =
  let inputs = Array.of_list inputs in
  let last = ref (-1, None) in
  List.map
    (fun (i, engine, seed) ->
      let input = inputs.(i) in
      let h =
        match !last with
        | j, Some h when j = i -> h
        | _ ->
            last := (-1, None);
            let h = load input in
            last := (i, Some h);
            h
      in
      Gc.full_major ();
      let r, ms, _ =
        Measure.timed (fun () ->
            if traced then run_op_traced engine h seed else run_op engine h seed)
      in
      let what = Printf.sprintf "%s %s seed %d" (engine_name engine) input.nl.Gen.name seed in
      Printf.eprintf "%s: %.1f ms, cut %d\n%!" what ms r.cut;
      judge what
        (Check.partition input.nl ~k:(k_of engine) ~rule:(rule_of engine) r.side ~cut:r.cut);
      (ms, r.cut))
    ops

let self_rss () = Measure.peak_rss_mb "self"

(* ---------- serve ---------- *)

type request = {
  line : string;
  nl : Gen.netlist;
  key : string;  (** netlist, seed, starts, tolerance *)
  tol : float;
  expect : string;  (** the cache answer the schedule implies: hit or miss *)
}

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let request ~src ~(input : input) ~seed ~starts ~tol ~expect =
  let src_field =
    match src with
    | `Path -> "\"path\":" ^ json_string input.path
    | `Inline -> "\"hgr\":" ^ json_string input.text
  in
  { line =
      Printf.sprintf
        "{\"op\":\"partition\",\"id\":\"q\",\"client\":\"bench\",%s,\"seed\":%d,\"starts\":%d,\"tolerance\":%g,\"side\":true}"
        src_field seed starts tol;
    nl = input.nl;
    key = Printf.sprintf "%s/%d/%d/%g" input.path seed starts tol;
    tol;
    expect }

(* Check one response; returns its reported cut and elapsed_ms. *)
let check_response seen (req : request) line =
  match Json.of_string line with
  | Error e ->
      judge ("request " ^ req.key) [ "undecodable response: " ^ e ];
      (0, 0.)
  | Ok j ->
      let status = Option.value ~default:"?" (Json.str_member "status" j) in
      let cut = Option.value ~default:(-1) (Json.int_member "cut" j) in
      let side =
        Option.value ~default:[] (Json.list_member "side" j)
        |> List.map (function Json.Int v -> v | _ -> -1)
        |> Array.of_list
      in
      let cache = Option.value ~default:"?" (Json.str_member "cache" j) in
      judge ("request " ^ req.key)
        (Check.status_ok status
        @ Check.partition req.nl ~k:2 ~rule:(Check.Bisection req.tol) side ~cut
        @ Check.same_as_before seen req.key ~cut
        @ (if cache = req.expect then []
           else [ Printf.sprintf "cache %s, scheduled %s" cache req.expect ]));
      (cut, float_of_int (Option.value ~default:0 (Json.int_member "elapsed_ms" j)))

(* Counters and histogram means from the daemon's stats query. *)
let stats_of conn =
  let j =
    match Json.of_string (Daemon.roundtrip conn "{\"op\":\"stats\",\"id\":\"stats\"}") with
    | Ok j -> j
    | Error e -> failwith ("undecodable stats: " ^ e)
  in
  let metrics = Option.bind (Json.member "stats" j) (Json.member "metrics") in
  let section name = Option.bind metrics (Json.member name) in
  let counter name =
    Option.value ~default:0 (Option.bind (section "counters") (Json.int_member name))
  in
  let hist_mean name =
    Option.bind (section "histograms") (Json.member name)
    |> Fun.flip Option.bind (Json.float_member "mean")
    |> Option.value ~default:0.
  in
  (counter, hist_mean)

type daemon = { d : Daemon.t; conn : Daemon.conn; setup_ms : float }

(* A daemon, its set-up timed from spawn until the ping is answered and
   every warm-up request is served (these cold runs put the hot designs
   in the cache). *)
let serve_setup ~exe ~dir ~cache seen warmups =
  let t0 = Measure.now_ms () in
  let d, conn = Daemon.spawn ~exe ~dir ~cache in
  let ping = Daemon.roundtrip conn "{\"op\":\"ping\",\"id\":\"ping\"}" in
  let answers = List.map (fun r -> Daemon.roundtrip conn r.line) warmups in
  let setup_ms = Measure.now_ms () -. t0 in
  invariant "ping answered ok"
    (Option.bind (Result.to_option (Json.of_string ping)) (Json.str_member "status")
    = Some "ok");
  List.iter2 (fun r line -> ignore (check_response seen r line)) warmups answers;
  { d; conn; setup_ms }

let serve_stop dm =
  Daemon.close dm.conn;
  invariant "daemon drained and exited 0" (Daemon.stop dm.d)

type session = {
  latencies : float list;
  by_class : string -> float list;  (** latencies of scheduled hits or misses *)
  transport : float list;  (** client latency - elapsed_ms *)
  cuts : int;
  wall_ms : float;
  rss : float;
  counter : string -> int;
  hist_mean : string -> float;
}

(* Run [reqs] on a set-up daemon over [conns] connections, read its stats
   and peak memory, stop it. *)
let serve_run ~conns:n seen dm reqs =
  let extra = List.init (n - 1) (fun _ -> Daemon.connect dm.d.Daemon.sock) in
  let answers, wall_ms =
    Daemon.closed_loop (dm.conn :: extra) (Array.map (fun r -> r.line) reqs)
  in
  List.iter Daemon.close extra;
  let checked = Array.mapi (fun i (_, line) -> check_response seen reqs.(i) line) answers in
  let counter, hist_mean = stats_of dm.conn in
  let rss = Measure.peak_rss_mb (string_of_int dm.d.Daemon.pid) in
  serve_stop dm;
  invariant "request ledger balances"
    (counter "serve.requests.received"
    = counter "serve.requests.completed" + counter "serve.requests.rejected"
      + counter "serve.requests.failed");
  let lat = Array.to_list (Array.map fst answers) in
  { latencies = lat;
    by_class = (fun c -> List.filteri (fun i _ -> reqs.(i).expect = c) lat);
    transport = List.mapi (fun i ms -> ms -. snd checked.(i)) lat;
    cuts = Array.fold_left (fun acc (cut, _) -> acc + cut) 0 checked;
    wall_ms; rss; counter; hist_mean }

let serve_layers s =
  add "serve.queue_wait_ms" (s.hist_mean "serve.queue.wait_ms");
  add "serve.job_ms" (s.hist_mean "serve.job.elapsed_ms");
  add "serve.transport_ms" (Measure.mean s.transport);
  add "serve.hit_p50_ms" (Measure.median (s.by_class "hit"));
  add "serve.miss_p50_ms" (Measure.median (s.by_class "miss"));
  add "cache.hits" (float_of_int (s.counter "serve.cache.hits"));
  add "cache.misses" (float_of_int (s.counter "serve.cache.misses"));
  add "cache.evictions" (float_of_int (s.counter "serve.cache.evictions"))

let hot_circuits = [ "s9234"; "biomed"; "s13207" ]

(* Six hot designs: the round-0 and round-1 stand-ins of each hot
   circuit.  With fewer, a single netlist's structure would set a whole
   run's cut total and tail. *)
let hot_inputs ~dir ~seed =
  List.concat_map
    (fun round -> List.map (circuit_input ~dir ~seed ~round) hot_circuits)
    [ 0; 1 ]

(* Room for the hot designs plus six.  Every hot design is requested once
   in every block of eight, so between two requests for it at most five
   other hot designs and four fresh netlists (five if neighbouring
   requests swap on the way in) are touched: only fresh entries are ever
   least recently used, and the hit/miss/eviction split is the same in
   every run. *)
let serve_cache = (2 * List.length hot_circuits) + 6

let nominal_block_s = 1.5

let warmup input = request ~src:`Path ~input ~seed:1 ~starts:1 ~tol:0.1 ~expect:"miss"

(* A netlist never sent before, the size of a hot design. *)
let fresh_input ~dir ~seed j =
  let circuit = List.nth hot_circuits (j mod List.length hot_circuits) in
  make_input ~dir ~gen_seed:(Gen.derive [ seed; j; 0xF5E5 ])
    ~file:(Printf.sprintf "fresh%d" j) circuit

(* Block b: each hot design once with seeded seed/starts/tolerance (block
   0 repeats the warm-up requests, so a hit is compared with the cold
   run), and fresh netlists 2b and 2b + 1 inline, in seeded order. *)
let serve_schedule ~seed hot fresh =
  let fresh = Array.of_list fresh in
  Array.concat
    (List.init (Array.length fresh / 2) (fun b ->
         let r = Gen.rng (Gen.derive [ seed; b; 0x5E7E ]) in
         let hot_req input =
           if b = 0 then { (warmup input) with expect = "hit" }
           else
             let seed = 1 + Gen.int r 3 in
             let starts = 1 + Gen.int r 2 in
             let tol = if Gen.int r 2 = 0 then 0.1 else 0.2 in
             request ~src:`Path ~input ~seed ~starts ~tol ~expect:"hit"
         in
         let fresh_req input =
           request ~src:`Inline ~input ~seed:(1 + Gen.int r 3) ~starts:1 ~tol:0.1
             ~expect:"miss"
         in
         let block =
           Array.of_list
             (List.map hot_req hot
             @ [ fresh_req fresh.(2 * b); fresh_req fresh.((2 * b) + 1) ])
         in
         for i = Array.length block - 1 downto 1 do
           let j = Gen.int r (i + 1) in
           let t = block.(i) in
           block.(i) <- block.(j);
           block.(j) <- t
         done;
         block))

(* Set up [reps] times (all but the last daemon stopped again), run the
   schedule on the last one over two connections. *)
let serve_pass ~exe ~dir ~reps hot reqs =
  let seen = Hashtbl.create 256 in
  let warmups = List.map warmup hot in
  let rec setups k acc =
    let dm = serve_setup ~exe ~dir ~cache:serve_cache seen warmups in
    if k = 1 then (dm, List.rev (dm.setup_ms :: acc))
    else begin
      serve_stop dm;
      setups (k - 1) (dm.setup_ms :: acc)
    end
  in
  let dm, setup_ms = setups reps [] in
  let s = serve_run ~conns:2 seen dm reqs in
  let fresh = Array.fold_left (fun n r -> if r.expect = "miss" then n + 1 else n) 0 reqs in
  let hot_n = List.length hot in
  invariant "cache hits as scheduled" (s.counter "serve.cache.hits" = Array.length reqs - fresh);
  invariant "cache misses as scheduled" (s.counter "serve.cache.misses" = hot_n + fresh);
  invariant "cache evictions as scheduled"
    (s.counter "serve.cache.evictions" = max 0 (hot_n + fresh - serve_cache));
  (s, Measure.median setup_ms /. 1000.)

(* ---------- per-layer probes ---------- *)

type probe_input = { input : input; h : H.t; j : int }

(* Layers a workload's operations use are timed on every input; the
   others once on its smallest input, so every traced run prints every
   per-layer metric. *)
let probes ~w ~exe ~dir ~seed ~lines inputs hs =
  let all = List.mapi (fun j (input, h) -> { input; h; j }) (List.combine inputs hs) in
  let smallest =
    [ List.fold_left
        (fun a b -> if b.input.nl.Gen.modules < a.input.nl.Gen.modules then b else a)
        (List.hd all) all ]
  in
  let on uses = if uses then all else smallest in
  let rng p tag = Rng.create (Gen.derive [ seed; p.j; tag ]) in
  let judge_partition p engine r =
    judge
      (Printf.sprintf "%s probe on %s" (engine_name engine) p.input.nl.Gen.name)
      (Check.partition p.input.nl ~k:(k_of engine) ~rule:(rule_of engine) r.side ~cut:r.cut)
  in
  List.iter
    (fun p ->
      let _, ms, _ = Measure.timed (fun () -> Hgr_io.parse_file ~mode:Hgr_io.Strict p.input.path) in
      add "parse_ms" ms;
      add "parse_bytes" (float_of_int (String.length p.input.text)))
    all;
  let coarsening = if w = `Bipart then cli_ml else Ml.mlc in
  List.iter
    (fun p ->
      let (cluster_of, k), ms, _ =
        Measure.timed (fun () ->
            Match.run ~max_net_size:coarsening.Ml.match_net_size (rng p 1) p.h
              ~ratio:coarsening.Ml.ratio)
      in
      let n = H.num_modules p.h in
      add "match.ms" ms;
      add "match.clusters" (float_of_int k);
      add "match.matched" (float_of_int (2 * (n - k)));
      add "match.modules" (float_of_int n);
      let _, ms, alloc =
        Measure.timed (fun () ->
            H.induce ~merge_duplicates:coarsening.Ml.merge_duplicates p.h cluster_of)
      in
      add "induce_ms" ms;
      add "induce_alloc_mb" (Measure.mb alloc))
    all;
  (* bipart takes the ML phases from its traced operations *)
  if w <> `Bipart then
    List.iter (fun p -> judge_partition p Bip (ml_phases Ml.mlc p.h (rng p 2))) all;
  List.iter
    (fun p ->
      let r, ms, _ =
        Measure.timed (fun () ->
            Fm.run ~config:{ Fm.clip with tolerance = 0.1 } (rng p 3) p.h)
      in
      add "fm.ms" ms;
      add "fm.passes" (float_of_int r.Fm.passes);
      add "fm.moves" (float_of_int r.Fm.moves);
      judge_partition p Bip { side = r.Fm.side; cut = r.Fm.cut; counts = [] })
    (on (w <> `Serve));
  List.iter
    (fun p ->
      let n = H.num_modules p.h in
      let g = Gain_cache.graph_of_hypergraph p.h in
      let side = Array.init n (fun v -> v * 4 / n) in
      let cache, ms, _ =
        Measure.timed (fun () -> Gain_cache.create g ~k:4 ~members:(Array.init n Fun.id) side)
      in
      add "gain_cache.build_ms" ms;
      (* a fixed script of moves, each to another part *)
      let r = Gen.rng (Gen.derive [ seed; p.j; 4 ]) in
      let sim = Array.copy side in
      let moves = 4 * n in
      let script =
        Array.init moves (fun _ ->
            let v = Gen.int r n in
            let q = (sim.(v) + 1 + Gen.int r 3) mod 4 in
            sim.(v) <- q;
            (v, q))
      in
      let (), ms, _ =
        Measure.timed (fun () -> Array.iter (fun (v, q) -> Gain_cache.move cache v q) script)
      in
      add "gain_cache.moves" (float_of_int moves);
      add "gain_cache.move_ms" ms;
      judge
        ("gain cache script on " ^ p.input.nl.Gen.name)
        (Check.cut_matches p.input.nl (Gain_cache.side_array cache) ~cut:(Gain_cache.cut cache)))
    (on (w = `Kway));
  List.iter
    (fun p ->
      let threshold = max nlevel_config.Nlevel.threshold 8 in
      let hy, ms, _ =
        Measure.timed (fun () -> Nlevel.coarsen_only ~threshold (rng p 5) p.h)
      in
      add "nlevel.contract_ms" ms;
      let (), ms, _ = Measure.timed (fun () -> Nlevel.uncontract_all hy) in
      add "nlevel.uncontract_ms" ms)
    (on (w = `Kway));
  (* kway takes the k-way engines from its traced operations; the others
     run rb and multiway on their smallest input and nlevel as kway does *)
  if w <> `Kway then begin
    List.iter
      (fun p ->
        List.iter
          (fun e -> judge_partition p e (run_op_traced e p.h (Gen.derive [ seed; p.j; 6 ])))
          [ Rb_k; Multiway_k ])
      smallest;
    let input = nlevel_fault_input ~dir in
    let p = { input; h = load input; j = -1 } in
    judge_partition p Nlevel_k (run_op_traced Nlevel_k p.h nlevel_fault_seed)
  end;
  let lines =
    match lines with
    | Some lines -> lines
    | None ->
        List.concat_map
          (fun input ->
            List.map
              (fun src -> (request ~src ~input ~seed:1 ~starts:1 ~tol:0.1 ~expect:"miss").line)
              [ `Path; `Inline ])
          inputs
  in
  let decoded, ms, _ = Measure.timed (fun () -> List.map Protocol.query_of_line lines) in
  add "protocol.decode_ms" ms;
  invariant "every request line decodes to a partition query"
    (List.for_all (function Ok (Protocol.Partition _) -> true | _ -> false) decoded);
  (* the batch workloads' serve layer: four requests on the smallest
     input with room for one hierarchy — miss, hit, fresh miss that
     evicts, miss again that evicts *)
  if w <> `Serve then begin
    let p = List.hd smallest in
    let fresh = make_input ~dir ~gen_seed:(Gen.derive [ seed; 7 ]) ~file:"fresh" "primary2" in
    let seen = Hashtbl.create 8 in
    let warm = warmup p.input in
    let dm = serve_setup ~exe ~dir ~cache:1 seen [ warm ] in
    let reqs =
      [| { warm with expect = "hit" };
         request ~src:`Path ~input:p.input ~seed:2 ~starts:1 ~tol:0.1 ~expect:"hit";
         request ~src:`Inline ~input:fresh ~seed:1 ~starts:1 ~tol:0.1 ~expect:"miss";
         warm |]
    in
    serve_layers (serve_run ~conns:1 seen dm reqs)
  end

let mean_of name = Measure.mean (get name)

let per_layer ~overhead =
  let parse_s = total "parse_ms" /. 1000. in
  [ ("hypergraph.parse_ms", mean_of "parse_ms", "ms");
    ("hypergraph.parse_mb_per_s", Measure.mb (total "parse_bytes") /. parse_s, "MB/s");
    ("hypergraph.induce_ms", mean_of "induce_ms", "ms");
    ("hypergraph.induce_alloc_mb", mean_of "induce_alloc_mb", "MB");
    ("match.ms", mean_of "match.ms", "ms");
    ("match.matched_ratio", total "match.matched" /. total "match.modules", "ratio");
    ("match.clusters", total "match.clusters", "count");
    ("ml.coarsen_ms", mean_of "ml.coarsen_ms", "ms");
    ("ml.levels", mean_of "ml.levels", "count");
    ("ml.coarsen_alloc_mb", mean_of "ml.coarsen_alloc_mb", "MB");
    ("ml.initial_ms", mean_of "ml.initial_ms", "ms");
    ("ml.refine_ms", mean_of "ml.refine_ms", "ms");
    ("ml.refine_alloc_mb", mean_of "ml.refine_alloc_mb", "MB");
    ("fm.ms", mean_of "fm.ms", "ms");
    ("fm.passes", total "fm.passes", "count");
    ("fm.moves", total "fm.moves", "count");
    ("fm.us_per_move", 1000. *. total "fm.ms" /. total "fm.moves", "us");
    ("gain_cache.build_ms", mean_of "gain_cache.build_ms", "ms");
    ("gain_cache.us_per_move", 1000. *. total "gain_cache.move_ms" /. total "gain_cache.moves", "us");
    ("nlevel.contract_ms", mean_of "nlevel.contract_ms", "ms");
    ("nlevel.uncontract_ms", mean_of "nlevel.uncontract_ms", "ms");
    ("nlevel.run_ms", mean_of "nlevel.run_ms", "ms");
    ("nlevel.contractions", total "nlevel.contractions", "count");
    ("nlevel.moves", total "nlevel.moves", "count");
    ("nlevel.cut_total", total "nlevel.cut_total", "nets");
    ("rb.run_ms", mean_of "rb.run_ms", "ms");
    ("rb.bisections", total "rb.bisections", "count");
    ("rb.cut_total", total "rb.cut_total", "nets");
    ("multiway.run_ms", mean_of "multiway.run_ms", "ms");
    ("multiway.cut_total", total "multiway.cut_total", "nets");
    ("protocol.decode_ms", total "protocol.decode_ms", "ms");
    ("serve.queue_wait_ms", mean_of "serve.queue_wait_ms", "ms");
    ("serve.job_ms", mean_of "serve.job_ms", "ms");
    ("serve.transport_ms", mean_of "serve.transport_ms", "ms");
    ("serve.hit_p50_ms", mean_of "serve.hit_p50_ms", "ms");
    ("serve.miss_p50_ms", mean_of "serve.miss_p50_ms", "ms");
    ("cache.hits", total "cache.hits", "count");
    ("cache.misses", total "cache.misses", "count");
    ("cache.evictions", total "cache.evictions", "count");
    ("bench.timing_overhead_ms", overhead, "ms") ]

(* ---------- workloads ---------- *)

let rounds_of seconds nominal = max 1 (int_of_float (Float.round (seconds /. nominal)))

let batch ~(w : [ `Bipart | `Kway ]) ~exe ~dir ~seed ~seconds ~trace =
  let rounds = rounds_of seconds (nominal_round_s w) in
  (* the traced run times the same operations twice, on half the rounds *)
  let rounds = if trace then max 1 (rounds / 2) else rounds in
  let inputs = batch_inputs ~dir ~seed ~rounds w in
  let setup_s = timed_setup inputs in
  let ops = schedule ~seed ~rounds w in
  if not trace then begin
    let done_ = batch_pass ~traced:false ops inputs in
    let latencies = List.map fst done_ in
    end_to_end ~setup_s
      ~ops_per_s:(float_of_int (List.length done_) /. (List.fold_left ( +. ) 0. latencies /. 1000.))
      ~latencies
      ~cut_total:(List.fold_left (fun acc (_, c) -> acc + c) 0 done_)
      ~rss:(self_rss ())
  end
  else begin
    (* the same operations untraced, then traced: the difference of their
       medians is what the layer timing costs *)
    let plain = batch_pass ~traced:false ops inputs in
    let traced = batch_pass ~traced:true ops inputs in
    invariant "traced operations return the untraced cuts"
      (List.map snd plain = List.map snd traced);
    let round0 = List.filteri (fun i _ -> i < List.length (batch_circuits w)) inputs in
    probes ~w:(w :> [ `Bipart | `Kway | `Serve ]) ~exe ~dir ~seed ~lines:None round0
      (List.map load round0);
    per_layer
      ~overhead:(Measure.median (List.map fst traced) -. Measure.median (List.map fst plain))
  end

let serve ~exe ~dir ~seed ~seconds ~trace =
  let hot = hot_inputs ~dir ~seed in
  let blocks = rounds_of seconds nominal_block_s in
  let blocks = if trace then max 1 (blocks / 2) else blocks in
  let fresh = List.init (2 * blocks) (fresh_input ~dir ~seed) in
  let reqs = serve_schedule ~seed hot fresh in
  if not trace then begin
    let s, setup_s = serve_pass ~exe ~dir ~reps:3 hot reqs in
    end_to_end ~setup_s
      ~ops_per_s:(float_of_int (Array.length reqs) /. (s.wall_ms /. 1000.))
      ~latencies:s.latencies ~cut_total:s.cuts ~rss:s.rss
  end
  else begin
    (* two identical passes on fresh daemons; the second feeds the layer
       metrics from the daemon's own stats *)
    let plain, _ = serve_pass ~exe ~dir ~reps:1 hot reqs in
    let traced, _ = serve_pass ~exe ~dir ~reps:1 hot reqs in
    serve_layers traced;
    let hs = List.map load hot in
    probes ~w:`Serve ~exe ~dir ~seed ~lines:(Some (Array.to_list (Array.map (fun r -> r.line) reqs))) hot hs;
    per_layer ~overhead:(Measure.median traced.latencies -. Measure.median plain.latencies)
  end

(* ---------- reference figures ---------- *)

(* Planted index-block split and expected random cut of every round-0
   netlist at the seed, with one ML bipartition for comparison. *)
let reference ~seed =
  Printf.printf "%-10s %7s %7s %7s | %8s %8s %10s | %8s %10s\n" "circuit" "modules" "nets"
    "pins" "k2 plant" "k2 ML" "k2 random" "k4 plant" "k4 random";
  let circuits = batch_circuits `Kway @ hot_circuits @ batch_circuits `Bipart in
  List.iter
    (fun circuit ->
      let nl = Gen.rent ~seed:(Gen.derive [ seed; 0; Hashtbl.hash circuit ]) (Gen.spec circuit) in
      let h =
        H.make ~name:circuit ~areas:(Array.make nl.Gen.modules 1)
          ~nets:(Array.map (fun e -> (e, 1)) nl.Gen.nets) ()
      in
      let ml = (run_op Bip h (Gen.derive [ seed; 0; Hashtbl.hash "ml" ])).cut in
      Printf.printf "%-10s %7d %7d %7d | %8d %8d %10.1f | %8d %10.1f\n%!" circuit nl.Gen.modules
        (Array.length nl.Gen.nets) (Gen.num_pins nl) (Gen.planted_cut nl ~k:2) ml
        (Gen.random_cut nl ~k:2) (Gen.planted_cut nl ~k:4) (Gen.random_cut nl ~k:4))
    circuits

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload bipart|kway|serve --seed N --seconds S --trace 0|1 \
     --mlpart EXE --workdir DIR\n\
    \       perfbench.exe --self-test\n\
    \       perfbench.exe --reference [--seed N]";
  exit 2

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | [] -> acc
    | ("--self-test" | "--reference") as f :: rest -> opts ((f, "") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let o = opts [] args in
  let opt k = List.assoc_opt k o in
  let int k d = match opt k with Some v -> (try int_of_string v with _ -> usage ()) | None -> d in
  let failed_checks = Check.self_test () in
  if failed_checks <> [] then begin
    Printf.eprintf "check self-test: corruption not rejected by %s\n" (String.concat ", " failed_checks);
    exit 1
  end;
  if opt "--self-test" <> None then print_endline "check self-test: every corruption rejected"
  else if opt "--reference" <> None then reference ~seed:(int "--seed" 1)
  else begin
    let workload, exe, root =
      match (opt "--workload", opt "--mlpart", opt "--workdir") with
      | Some w, Some e, Some r -> (w, e, r)
      | _ -> usage ()
    in
    let seed = int "--seed" 1 and seconds = float_of_int (int "--seconds" 20) in
    let trace = int "--trace" 0 = 1 in
    if not (Sys.file_exists exe) then (Printf.eprintf "no mlpart executable at %s\n" exe; exit 2);
    let dir = Filename.concat root (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
    if not (Sys.file_exists root) then Sys.mkdir root 0o755;
    Sys.mkdir dir 0o755;
    let metrics =
      Fun.protect ~finally:(fun () -> remove_tree dir) (fun () ->
          match workload with
          | "bipart" -> batch ~w:`Bipart ~exe ~dir ~seed ~seconds ~trace
          | "kway" -> batch ~w:`Kway ~exe ~dir ~seed ~seconds ~trace
          | "serve" -> serve ~exe ~dir ~seed ~seconds ~trace
          | w -> Printf.eprintf "unknown workload %s\n" w; exit 2)
    in
    print_result metrics
  end
