(* Rule 6 in action: mode freezing prevents writer starvation.

   A writer requests W on a lock that a stream of readers keeps busy. With
   freezing (the paper's protocol), the queued W freezes R at the token:
   readers arriving after the writer wait, and the writer gets in as soon
   as the current readers drain. With freezing disabled (ablation), new
   compatible readers keep overtaking and the writer waits far longer.

   Run with:  dune exec examples/fairness.exe *)

let run_one ~freezing =
  let config = { Core.Hlock.default_config with Core.Hlock.freezing } in
  let nodes = 12 in
  let svc = Core.Service.create ~config ~nodes ~seed:5L ~locks:[ "data" ] () in
  let writer_issued = ref 0.0 and writer_served = ref None in
  let reads = ref 0 in
  (* Readers 1..11 read repeatedly. *)
  for node = 1 to nodes - 1 do
    let rec loop () =
      if Core.Service.now svc < 6000.0 then
        Core.Service.schedule svc ~after:60.0 (fun () ->
            Core.Service.lock svc ~node ~name:"data" ~mode:Core.Mode.R (fun t ->
                incr reads;
                Core.Service.schedule svc ~after:40.0 (fun () ->
                    Core.Service.unlock svc t;
                    loop ())))
    in
    loop ()
  done;
  (* The writer arrives at t=500. *)
  Core.Service.schedule svc ~after:500.0 (fun () ->
      writer_issued := Core.Service.now svc;
      Core.Service.lock svc ~node:0 ~name:"data" ~mode:Core.Mode.W (fun t ->
          writer_served := Some (Core.Service.now svc);
          Core.Service.schedule svc ~after:20.0 (fun () -> Core.Service.unlock svc t)));
  Core.Service.run svc;
  let wait =
    match !writer_served with
    | Some t -> t -. !writer_issued
    | None -> infinity
  in
  (wait, !reads)

let () =
  let wait_frozen, reads_frozen = run_one ~freezing:true in
  let wait_free, reads_free = run_one ~freezing:false in
  Printf.printf "Writer wait with freezing (Rule 6):    %8.0f ms  (%d reads completed)\n"
    wait_frozen reads_frozen;
  Printf.printf "Writer wait with freezing disabled:    %8.0f ms  (%d reads completed)\n"
    wait_free reads_free;
  if wait_frozen < wait_free then
    Printf.printf "\nFreezing cut the writer's wait by %.1fx.\n" (wait_free /. wait_frozen)
  else begin
    Printf.printf "\nUnexpected: freezing did not help under this schedule.\n";
    exit 1
  end
