(* Prioritized locking (the extension of Mueller [11,12] this protocol
   family supports): requests carry a priority; every queue serves by
   descending priority, FIFO within a level. Ordering is exact at the
   token node — where contended requests accumulate on read-mostly locks —
   and inverted by at most one custodian's wait inside custody chains.

   Eight readers keep a lock in R; four background writers and one
   latency-critical writer compete for W slots. The writers all queue at
   the (stationary) token, so the critical writer's priority 9 puts it at
   the head of every drain.

   Run with:  dune exec examples/realtime.exe *)

let () =
  let nodes = 13 in
  let svc = Core.Service.create ~nodes ~seed:77L ~locks:[ "resource" ] () in
  let horizon = 30_000.0 in
  let background = Core.Summary.create () in
  let critical = Core.Summary.create () in

  (* Readers 5..12: a steady shared-read load. *)
  for node = 5 to nodes - 1 do
    let rec loop () =
      if Core.Service.now svc < horizon then
        Core.Service.schedule svc ~after:120.0 (fun () ->
            Core.Service.lock svc ~node ~name:"resource" ~mode:Core.Mode.R (fun t ->
                Core.Service.schedule svc ~after:15.0 (fun () ->
                    Core.Service.unlock svc t;
                    loop ())))
    in
    loop ()
  done;

  (* Four background writers (priority 0). *)
  for node = 1 to 4 do
    let rec loop () =
      if Core.Service.now svc < horizon then
        Core.Service.schedule svc ~after:600.0 (fun () ->
            let t0 = Core.Service.now svc in
            Core.Service.lock svc ~node ~name:"resource" ~mode:Core.Mode.W (fun t ->
                Core.Summary.add background (Core.Service.now svc -. t0);
                Core.Service.schedule svc ~after:15.0 (fun () ->
                    Core.Service.unlock svc t;
                    loop ())))
    in
    loop ()
  done;

  (* The critical writer (priority 9). *)
  let rec critical_loop () =
    if Core.Service.now svc < horizon then
      Core.Service.schedule svc ~after:1500.0 (fun () ->
          let t0 = Core.Service.now svc in
          Core.Service.lock ~priority:9 svc ~node:0 ~name:"resource" ~mode:Core.Mode.W
            (fun t ->
              Core.Summary.add critical (Core.Service.now svc -. t0);
              Core.Service.schedule svc ~after:15.0 (fun () ->
                  Core.Service.unlock svc t;
                  critical_loop ())))
  in
  critical_loop ();

  Core.Service.run svc;
  Printf.printf "background writes: %4d acquisitions, mean wait %7.0f ms, max %7.0f ms\n"
    (Core.Summary.count background) (Core.Summary.mean background) (Core.Summary.max background);
  Printf.printf "critical  writes: %4d acquisitions, mean wait %7.0f ms, max %7.0f ms\n"
    (Core.Summary.count critical) (Core.Summary.mean critical) (Core.Summary.max critical);
  if Core.Summary.mean critical < Core.Summary.mean background then
    Printf.printf "\nPriority queueing cut the critical writer's mean wait by %.1fx.\n"
      (Core.Summary.mean background /. Core.Summary.mean critical)
  else begin
    Printf.printf "\nUnexpected: priority did not pay off under this schedule.\n";
    exit 1
  end
