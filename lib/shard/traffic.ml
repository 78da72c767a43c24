(* Deterministic sharded-service traffic.

   The namespace-level plan is rounds of jobs; a job is one request
   burst against one lock set, whose ops are a one-lock
   [Dcs_workload.Script.burst]. Which sets get traffic is drawn once,
   globally, before any shard placement decision — optionally Zipf-skewed
   toward hot sets — so the plan (and every burst's content) is identical
   whatever the shard count, bucket count or migration schedule. Burst
   contents are derived from a per-(set, burst) seed, never from plan
   position or executing shard. *)

module Rng = Dcs_sim.Rng

type job = { set : int; burst : int }

type t = { lock_sets : int; rounds : job array array; total_bursts : int }

(* Bursts per set are bounded by the salt stride below so (set, burst)
   pairs stay injective into the seed space. *)
let max_bursts_per_set = 1 lsl 20

let salt_of_job { set; burst } =
  if burst >= max_bursts_per_set then invalid_arg "Traffic.salt_of_job: burst index too large";
  (set * max_bursts_per_set) + burst

let plan ?(skew = 0.0) ~seed ~lock_sets ~rounds ~jobs_per_round () =
  if lock_sets < 1 then invalid_arg "Traffic.plan: need at least one lock set";
  if rounds < 0 || jobs_per_round < 0 then invalid_arg "Traffic.plan: negative plan size";
  let rng = Rng.create ~seed:(Dcs_netkit.Parallel.cell_seed ~base:seed ~salt:999983) in
  let draw_set =
    if skew <= 0.0 then fun () -> Rng.int rng ~bound:lock_sets
    else
      let z = Dcs_workload.Zipf.create ~n:lock_sets ~theta:skew in
      fun () -> Dcs_workload.Zipf.sample z rng
  in
  let bursts_seen = Hashtbl.create 1024 in
  let next_burst set =
    let b = match Hashtbl.find_opt bursts_seen set with None -> 0 | Some b -> b in
    if b + 1 >= max_bursts_per_set then invalid_arg "Traffic.plan: too many bursts for one set";
    Hashtbl.replace bursts_seen set (b + 1);
    b
  in
  let round _ =
    Array.init jobs_per_round (fun _ ->
        let set = draw_set () in
        { set; burst = next_burst set })
  in
  { lock_sets; rounds = Array.init rounds round; total_bursts = rounds * jobs_per_round }
