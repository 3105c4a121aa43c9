(* Clocks, allocation and memory readings, and order statistics. *)

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* Wall time in ms and bytes allocated by [f] (this domain only; every
   call the benchmark times runs at jobs 1). *)
let timed f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now_ms () in
  let x = f () in
  let t1 = now_ms () in
  (x, t1 -. t0, Gc.allocated_bytes () -. a0)

let mb bytes = bytes /. 1048576.

(* Linear-interpolation quantile of a non-empty sample, q in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Peak resident set ("VmHWM") of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.get
