(* Write barriers per lock request on the golden runs of test_runtime:
   the 16-node airline run (seed 42, 20 ops per node) and the 16-node
   hot-lock loop (15 clients x 50 rounds, constant 1 ms links). Every
   caml_modify call is counted by the linker-installed wrapper in
   barrier_stubs.c and attributed to the module of the calling function.

   Run with:  dune exec bench/barriers.exe [-- --check]

   The counts are exact and repeat run to run (the runs are
   deterministic simulations). With --check, a run whose total exceeds
   its ceiling — the count measured when the ceiling was set, plus 10% —
   fails the process, like test_runtime's minor-word ceilings. *)

open Dcs_runtime
module Airline = Dcs_workload.Airline

external start : unit -> unit = "barriers_start"
external stop : unit -> unit = "barriers_stop"
external total : unit -> int = "barriers_total"
external sites : unit -> (string * int) array = "barriers_sites"

let airline () =
  let cfg = Experiment.default_config ~driver:Experiment.Hierarchical ~nodes:16 in
  let cfg =
    { cfg with
      Experiment.seed = 42L;
      workload = { cfg.Experiment.workload with Airline.ops_per_node = 20 } }
  in
  (Experiment.run cfg).Experiment.lock_requests

(* test_runtime's golden hot-lock loop: every non-token node runs
   closed-loop request, hold, release cycles on one lock, every fourth
   one writing. *)
let hotlock () =
  let nodes = 16 and rounds = 50 in
  let engine = Dcs_sim.Engine.create () in
  let rng = Dcs_sim.Rng.create ~seed:42L in
  let net = Net.create ~engine ~latency:(Dcs_sim.Dist.Constant 1.0) ~rng () in
  let cluster = Hlock_cluster.create ~net ~nodes ~locks:1 () in
  let master = Dcs_sim.Rng.create ~seed:7L in
  for node = 1 to nodes - 1 do
    let hold = Dcs_sim.Rng.split master in
    let mode = if node mod 4 = 0 then Dcs_modes.Mode.W else Dcs_modes.Mode.R in
    let remaining = ref rounds in
    let rec go () =
      let seq = ref (-1) in
      seq :=
        Hlock_cluster.request cluster ~node ~lock:0 ~mode ~on_granted:(fun () ->
            Dcs_sim.Engine.schedule engine ~after:(Dcs_sim.Rng.uniform hold ~lo:0.25 ~hi:0.75)
              (fun () ->
                Hlock_cluster.release cluster ~node ~lock:0 ~seq:!seq;
                decr remaining;
                if !remaining > 0 then Dcs_sim.Engine.schedule engine ~after:0.0 go))
    in
    Dcs_sim.Engine.schedule engine ~after:0.0 go
  done;
  ignore (Dcs_sim.Engine.run engine);
  (nodes - 1) * rounds

(* The module of an OCaml function symbol: [camlDcs_hlock__Node.f_12] is
   [Dcs_hlock.Node] (dune joins a library's name to its modules' with a
   double underscore). Any other symbol is runtime C code, named as is. *)
let module_of symbol =
  let n = String.length symbol in
  if n > 4 && String.sub symbol 0 4 = "caml" && Char.uppercase_ascii symbol.[4] = symbol.[4]
  then begin
    let stop = match String.index_from_opt symbol 4 '.' with Some i -> i | None -> n in
    let b = Buffer.create 32 in
    let rec go i =
      if i < stop then
        if i + 1 < stop && symbol.[i] = '_' && symbol.[i + 1] = '_' then begin
          Buffer.add_char b '.';
          go (i + 2)
        end
        else begin
          Buffer.add_char b symbol.[i];
          go (i + 1)
        end
    in
    go 4;
    Buffer.contents b
  end
  else "(C) " ^ symbol

(* Ceilings on the whole-run totals: measured + 10% (7,107 and 13,360). *)
let runs = [ ("airline 16 nodes", airline, 7_818); ("hot lock 16 nodes", hotlock, 14_696) ]

let () =
  let check = Array.exists (( = ) "--check") Sys.argv in
  let failed = ref false in
  List.iter
    (fun (name, run, ceiling) ->
      start ();
      let requests = run () in
      stop ();
      let calls = total () in
      let per_module = Hashtbl.create 16 in
      Array.iter
        (fun (symbol, n) ->
          let m = module_of symbol in
          Hashtbl.replace per_module m (n + Option.value ~default:0 (Hashtbl.find_opt per_module m)))
        (sites ());
      Printf.printf "%s: %d caml_modify calls, %d lock requests, %.2f per request\n" name calls
        requests
        (float_of_int calls /. float_of_int requests);
      Hashtbl.fold (fun m n acc -> (m, n) :: acc) per_module []
      |> List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
      |> List.iter (fun (m, n) ->
             Printf.printf "  %-32s %8d  %6.2f per request\n" m n
               (float_of_int n /. float_of_int requests));
      if check && calls > ceiling then begin
        Printf.printf "FAIL: %s: %d caml_modify calls > ceiling %d\n" name calls ceiling;
        failed := true
      end)
    runs;
  if !failed then exit 1
