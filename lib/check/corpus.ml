module Script = Dcs_workload.Script

type expect = Pass | Fail
type entry = { case : Fuzz.case; expect : expect }

let magic = "dcs-fuzz/1"

let to_string { case; expect } =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%s" magic;
  line "expect %s" (match expect with Pass -> "pass" | Fail -> "fail");
  line "seed %Ld" case.Fuzz.seed;
  line "nodes %d" case.Fuzz.script.Script.nodes;
  line "locks %d" case.Fuzz.script.Script.locks;
  (match case.Fuzz.plan with None -> () | Some p -> line "plan %s" p);
  (match case.Fuzz.mutation with
  | None -> ()
  | Some m -> line "mutation %s" (Fuzz.mutation_to_string m));
  List.iter (fun o -> line "%s" (Script.op_to_line o)) case.Fuzz.script.Script.ops;
  Buffer.contents b

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> Error "empty corpus file"
  | hd :: rest when hd = magic -> (
      let expect = ref None
      and seed = ref None
      and nodes = ref None
      and locks = ref None
      and plan = ref None
      and mutation = ref None
      and ops = ref []
      and err = ref None in
      let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
      List.iter
        (fun l ->
          if !err = None then
            match String.index_opt l ' ' with
            | None -> fail "malformed line %S" l
            | Some i -> (
                let key = String.sub l 0 i in
                let v = String.sub l (i + 1) (String.length l - i - 1) in
                match key with
                | "expect" -> (
                    match v with
                    | "pass" -> expect := Some Pass
                    | "fail" -> expect := Some Fail
                    | _ -> fail "bad expect %S" v)
                | "seed" -> (
                    match Int64.of_string_opt v with
                    | Some x -> seed := Some x
                    | None -> fail "bad seed %S" v)
                | "nodes" -> (
                    match int_of_string_opt v with
                    | Some x when x > 0 -> nodes := Some x
                    | _ -> fail "bad nodes %S" v)
                | "locks" -> (
                    match int_of_string_opt v with
                    | Some x when x > 0 -> locks := Some x
                    | _ -> fail "bad locks %S" v)
                | "plan" ->
                    if v = "none" then plan := None
                    else if List.mem v Dcs_fault.Plan.names then plan := Some v
                    else fail "unknown plan %S" v
                | "mutation" -> (
                    if v = "none" then mutation := None
                    else
                      match Fuzz.mutation_of_string v with
                      | Some m -> mutation := Some m
                      | None -> fail "unknown mutation %S" v)
                | "op" -> (
                    match Script.op_of_line l with
                    | Ok o -> ops := o :: !ops
                    | Error e -> fail "%s" e)
                | _ -> fail "unknown key %S" key))
        rest;
      match (!err, !expect, !seed, !nodes, !locks) with
      | Some e, _, _, _, _ -> Error e
      | None, Some expect, Some seed, Some nodes, Some locks -> (
          let script = { Script.nodes; locks; ops = List.rev !ops } in
          match Script.validate script with
          | Error e -> Error ("invalid script: " ^ e)
          | Ok () ->
              Ok
                {
                  case = { Fuzz.seed; script; plan = !plan; mutation = !mutation };
                  expect;
                })
      | None, _, _, _, _ -> Error "missing expect/seed/nodes/locks header"
      )
  | hd :: _ -> Error (Printf.sprintf "bad magic %S (want %S)" hd magic)

let write ~path entry =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string entry))

let read ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e

let check entry =
  let v = Fuzz.run entry.case in
  let failed = Fuzz.failed v in
  match (entry.expect, failed) with
  | Pass, false | Fail, true -> Ok v
  | Pass, true -> Error ("expected pass but run failed", v)
  | Fail, false -> Error ("expected fail but run passed", v)
