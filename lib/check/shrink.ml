module Script = Dcs_workload.Script

type state = { mutable runs : int; budget : int; log : string -> unit }

let fails st (c : Fuzz.case) =
  if st.runs >= st.budget then false
  else begin
    st.runs <- st.runs + 1;
    match Script.validate c.script with
    | Error _ -> false
    | Ok () -> Fuzz.failed (Fuzz.run c)
  end

let with_ops (c : Fuzz.case) ops = { c with script = { c.script with Script.ops } }

(* Zeller–Hildebrandt ddmin over the op list. *)
let ddmin st (c : Fuzz.case) =
  let current = ref c in
  let ops = ref c.script.Script.ops in
  let n = ref (min 2 (max 1 (List.length !ops))) in
  let continue = ref (List.length !ops > 1) in
  while !continue do
    let len = List.length !ops in
    let chunk = max 1 (len / !n) in
    let complements =
      List.init !n (fun i ->
          let lo = i * chunk and hi = if i = !n - 1 then len else (i + 1) * chunk in
          List.filteri (fun j _ -> j < lo || j >= hi) !ops)
    in
    match
      List.find_opt
        (fun cand -> List.length cand < len && fails st (with_ops !current cand))
        complements
    with
    | Some cand ->
        st.log
          (Printf.sprintf "ddmin: %d -> %d ops" len (List.length cand));
        ops := cand;
        current := with_ops !current cand;
        n := max 2 (!n - 1);
        continue := List.length !ops > 1
    | None ->
        if !n >= len then continue := false
        else n := min len (2 * !n);
        if st.runs >= st.budget then continue := false
  done;
  !current

(* Whole-script candidate transforms, kept when the case still fails. *)
let structural st (c : Fuzz.case) =
  let try_candidate label cand c = if fails st cand then (st.log label; cand) else c in
  let c =
    match c.plan with
    | Some _ -> try_candidate "dropped fault plan" { c with plan = None } c
    | None -> c
  in
  let c =
    if c.script.Script.locks > 1 then
      let ops = List.map (fun (o : Script.op) -> { o with Script.lock = 0 }) c.script.Script.ops in
      try_candidate "collapsed to one lock"
        { c with script = { c.script with Script.locks = 1; ops } }
        c
    else c
  in
  let c =
    (* Compact the population to the participating nodes. Keep node 0 as
       the token home; map used nodes to 1.. (or 0 if already used). *)
    let used =
      List.sort_uniq compare (List.map (fun (o : Script.op) -> o.Script.node) c.script.Script.ops)
    in
    let mapping = List.mapi (fun i n -> (n, if List.mem 0 used then i else i + 1)) used in
    let nodes' = List.fold_left (fun acc (_, v) -> max acc (v + 1)) 1 mapping in
    if nodes' < c.script.Script.nodes then
      let ops =
        List.map
          (fun (o : Script.op) -> { o with Script.node = List.assoc o.Script.node mapping })
          c.script.Script.ops
      in
      try_candidate
        (Printf.sprintf "compacted %d -> %d nodes" c.script.Script.nodes nodes')
        { c with script = { c.script with Script.nodes = nodes'; ops } }
        c
    else c
  in
  let c =
    if List.exists (fun (o : Script.op) -> o.Script.priority > 0) c.script.Script.ops then
      let ops = List.map (fun (o : Script.op) -> { o with Script.priority = 0 }) c.script.Script.ops in
      try_candidate "zeroed priorities" (with_ops c ops) c
    else c
  in
  let c =
    if List.exists (fun (o : Script.op) -> o.Script.hold > 1.0) c.script.Script.ops then
      let ops = List.map (fun (o : Script.op) -> { o with Script.hold = 1.0 }) c.script.Script.ops in
      try_candidate "shortened holds" (with_ops c ops) c
    else c
  in
  let c =
    (* Compress the schedule: issue every 10 ms in original order. *)
    let ops =
      List.mapi (fun i (o : Script.op) -> { o with Script.at = float_of_int i *. 10.0 }) c.script.Script.ops
    in
    if ops <> c.script.Script.ops then try_candidate "compressed schedule" (with_ops c ops) c
    else c
  in
  c

let default_budget = 4000

let shrink ?(budget = default_budget) ?(log = fun _ -> ()) (c : Fuzz.case) =
  let st = { runs = 0; budget; log } in
  let rec fix c =
    let before = (List.length c.Fuzz.script.Script.ops, c.Fuzz.plan, c.Fuzz.script) in
    let c = ddmin st c in
    let c = structural st c in
    let after = (List.length c.Fuzz.script.Script.ops, c.Fuzz.plan, c.Fuzz.script) in
    if before = after || st.runs >= st.budget then c else fix c
  in
  fix c
