module Engine = Dcs_sim.Engine
module Net = Dcs_runtime.Net
module Faulty_net = Dcs_runtime.Faulty_net
module Cluster = Dcs_runtime.Hlock_cluster
module Script = Dcs_workload.Script

let drive cluster ~schedule script =
  Script.drive script
    ~request:(fun (o : Script.op) ~on_granted ->
      Cluster.request ~priority:o.priority cluster ~node:o.node ~lock:o.lock ~mode:o.mode
        ~on_granted)
    ~upgrade:(fun (o : Script.op) ~seq ~on_upgraded ->
      Cluster.upgrade cluster ~node:o.node ~lock:o.lock ~seq ~on_upgraded)
    ~release:(fun (o : Script.op) ~seq -> Cluster.release cluster ~node:o.node ~lock:o.lock ~seq)
    ~schedule

type case = {
  seed : int64;
  script : Script.t;
  plan : string option;
  mutation : Dcs_hlock.Node.mutation option;
}

type verdict = {
  case : case;
  violations : string list;
  completed : bool;
  outcome : Engine.outcome;
  grants : int;
  upgrades : int;
  releases : int;
  messages : int;
  sim_ms : float;
  engine_events : int;
  digest : int64;
  oracle : Oracle.report;
  max_hops : int;
  sweep_restarts : int;
}

let mutation_to_string = function
  | Dcs_hlock.Node.Weak_freeze -> "weak-freeze"
  | Dcs_hlock.Node.Ignore_frozen -> "ignore-frozen"

let mutation_of_string = function
  | "weak-freeze" -> Some Dcs_hlock.Node.Weak_freeze
  | "ignore-frozen" -> Some Dcs_hlock.Node.Ignore_frozen
  | _ -> None

let case ?plan ?mutation ?zipf ~seed ~nodes ~locks ~ops () =
  (match plan with
  | Some p when not (List.mem p Dcs_fault.Plan.names) ->
      invalid_arg ("Fuzz.case: unknown plan " ^ p)
  | _ -> ());
  { seed; script = Script.generate ?zipf ~seed ~nodes ~locks ~ops (); plan; mutation }

let mean_latency_ms = 150.0

(* Deadline for declaring starvation. Worst case is fully serialized W
   traffic: each op may need a multi-hop token transfer (a few latencies)
   plus its hold time. Generous on purpose — a passing run drains long
   before it; only a genuinely stuck run reaches the horizon. *)
let deadline (c : case) ~plan_horizon =
  Script.last_issue c.script
  +. plan_horizon
  +. (float_of_int (List.length c.script.ops) *. (25.0 +. (8.0 *. mean_latency_ms)))
  +. 10_000.0

let run (c : case) =
  (match Script.validate c.script with
  | Ok () -> ()
  | Error e -> invalid_arg ("Fuzz.run: invalid script: " ^ e));
  let script = c.script in
  let n_ops = List.length script.ops in
  let engine = Engine.create () in
  let trace = Dcs_sim.Trace.create () in
  (* Fault plan windows are placed inside the issue phase of the script. *)
  let plan =
    match c.plan with
    | None -> []
    | Some name -> (
        let horizon = Float.max 2_000.0 (Script.last_issue script) in
        match Dcs_fault.Plan.named ~nodes:script.nodes ~horizon name with
        | Some p -> p
        | None -> invalid_arg ("Fuzz.run: unknown plan " ^ name))
  in
  let faulty =
    Faulty_net.create ~engine ~latency:(Dcs_sim.Dist.uniform_around mean_latency_ms) ~trace
      ~seed:c.seed plan
  in
  let net = faulty.Faulty_net.net in
  let recorder = Dcs_obs.Recorder.create ~events:true () in
  let config = { Dcs_hlock.Node.default_config with mutation = c.mutation } in
  let cluster =
    Cluster.create ~config ~oracle:true ?transport:(Faulty_net.transport faulty) ~obs:recorder
      ~net ~nodes:script.nodes ~locks:script.locks ()
  in
  let violations = ref [] in
  let aborted = ref false in
  (* Much shorter than the benchmark harness's 400x: fuzz horizons are
     tight, so the custody watchdog must get several chances to unwind a
     crossing before the run is declared stuck. Kicks are cheap no-ops
     outside the vulnerable state. The watchdog is scheduled ahead of the
     script's ops, which fixes its place among equal-time events; it reads
     the driver's counts, which exist before any event fires. *)
  let driven = ref None in
  if n_ops > 0 then
    Cluster.watchdog cluster ~engine ~period:(20.0 *. mean_latency_ms) ~busy:(fun () ->
        match !driven with Some (c : Script.counts) -> c.releases <> n_ops | None -> true);
  let counts = drive cluster ~schedule:(Engine.schedule engine) script in
  driven := Some counts;
  let until = deadline c ~plan_horizon:(Dcs_fault.Plan.horizon plan) in
  (* The per-message safety oracle raises Failure from inside the event
     loop; [Faulty_net.run] catches it at the driver boundary and the
     partial trace is kept. *)
  let outcome =
    match Faulty_net.run ~until ~max_events:20_000_000 engine with
    | Ok o -> o
    | Error v ->
        aborted := true;
        violations := v :: !violations;
        Engine.Drained
  in
  (match outcome with
  | Engine.Event_limit -> violations := "engine event limit hit (livelock?)" :: !violations
  | Engine.Drained | Engine.Horizon_reached -> ());
  let expected_upgrades = Script.upgrade_ops script in
  let completed =
    (not !aborted)
    && counts.grants = n_ops
    && counts.upgrades = expected_upgrades
    && counts.releases = n_ops
  in
  if (not completed) && not !aborted then
    violations :=
      Printf.sprintf
        "liveness: %d/%d grants, %d/%d upgrades, %d/%d releases completed by horizon %.0f ms"
        counts.grants n_ops counts.upgrades expected_upgrades counts.releases n_ops until
      :: !violations;
  if completed then
    List.iter
      (fun v -> violations := ("quiescence: " ^ v) :: !violations)
      (Faulty_net.at_rest faulty (Cluster.quiescent_violations cluster));
  let events = Dcs_obs.Recorder.events recorder in
  let oracle = Oracle.conformance ~require_complete:(not !aborted) ~events () in
  let max_hops =
    List.fold_left
      (fun acc (e : Dcs_obs.Event.t) ->
        match e.kind with
        | Dcs_obs.Event.Granted_local { hops; _ } | Dcs_obs.Event.Granted_token { hops; _ } ->
            max acc hops
        | _ -> acc)
      0 events
  in
  let sweep_restarts = ref 0 in
  for lock = 0 to script.locks - 1 do
    for node = 0 to script.nodes - 1 do
      sweep_restarts :=
        !sweep_restarts + Dcs_hlock.Node.sweep_restarts (Cluster.node cluster ~lock ~node)
    done
  done;
  List.iter (fun v -> violations := ("oracle: " ^ v) :: !violations) oracle.Oracle.violations;
  {
    case = c;
    violations = List.rev !violations;
    completed;
    outcome;
    grants = counts.grants;
    upgrades = counts.upgrades;
    releases = counts.releases;
    messages = Dcs_proto.Counters.total (Net.counters net);
    sim_ms = Engine.now engine;
    engine_events = Engine.events_processed engine;
    digest = Dcs_sim.Trace.digest trace;
    oracle;
    max_hops;
    sweep_restarts = !sweep_restarts;
  }

let failed v = v.violations <> []

type failure_class = Safety | Never_granted | Overtake | Other

(* Gravest first. *)
let failure_classes = [ Safety; Never_granted; Overtake; Other ]

let failure_class_name = function
  | Safety -> "safety"
  | Never_granted -> "never granted"
  | Overtake -> "overtake"
  | Other -> "other"

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The class of one violation line, read off the wording this module and
   [Oracle.conformance] give it. *)
let class_of_violation s =
  if
    String.starts_with ~prefix:"safety: " s
    || contains ~sub:"incompatible concurrent grants" s
    || contains ~sub:"(Rule 7 atomicity)" s
  then Safety
  else if
    String.starts_with ~prefix:"liveness: " s
    || String.starts_with ~prefix:"engine event limit" s
    || contains ~sub:": never granted (" s
  then Never_granted
  else if contains ~sub:": overtaken " s then Overtake
  else Other

let failure_class v =
  let classes = List.map class_of_violation v.violations in
  List.find_opt (fun c -> List.mem c classes) failure_classes

let pp_verdict ppf v =
  Format.fprintf ppf
    "@[<v>%s seed=%Ld nodes=%d locks=%d ops=%d plan=%s mutation=%s@,\
     grants=%d upgrades=%d releases=%d messages=%d sim=%.0fms digest=%016Lx"
    (if failed v then "FAIL" else "pass")
    v.case.seed v.case.script.Script.nodes v.case.script.Script.locks
    (List.length v.case.script.Script.ops)
    (Option.value v.case.plan ~default:"none")
    (match v.case.mutation with None -> "none" | Some m -> mutation_to_string m)
    v.grants v.upgrades v.releases v.messages v.sim_ms v.digest;
  List.iter (fun s -> Format.fprintf ppf "@,  %s" s) v.violations;
  Format.fprintf ppf "@]"
