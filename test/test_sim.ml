(* Tests for the simulation substrate: PRNG, distributions, event engine,
   traces. *)

open Dcs_sim
module Q = QCheck2

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* {1 Rng} *)

let test_rng_determinism () =
  let a = Rng.create ~seed:123L and b = Rng.create ~seed:123L in
  for _ = 1 to 100 do
    Alcotest.check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create ~seed:124L in
  checkb "different seed differs" true (Rng.next_int64 a <> Rng.next_int64 c)

let prop_rng_float_unit =
  Q.Test.make ~name:"float in [0,1)" ~count:200 Q.Gen.int64 (fun seed ->
      let rng = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Rng.float rng in
        if not (x >= 0.0 && x < 1.0) then ok := false
      done;
      !ok)

let prop_rng_int_bound =
  Q.Test.make ~name:"int in [0,bound)" ~count:200
    Q.Gen.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Rng.int rng ~bound in
        if not (x >= 0 && x < bound) then ok := false
      done;
      !ok)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:7L in
  let sum = ref 0.0 in
  let n = 200_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:150.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean within 2%" true (Float.abs (mean -. 150.0) < 3.0)

let test_rng_split_independent () =
  let rng = Rng.create ~seed:9L in
  let a = Rng.split rng and b = Rng.split rng in
  checkb "split streams differ" true (Rng.next_int64 a <> Rng.next_int64 b)

(* The first outputs of the reference SplitMix64 for two seeds; seed 0's
   are the published vectors. A change to [Rng]'s representation must
   leave every stream bit-identical. *)
let test_rng_splitmix_vectors () =
  let first3 seed =
    let rng = Rng.create ~seed in
    List.init 3 (fun _ -> Rng.next_int64 rng)
  in
  let check_vectors seed expected =
    Alcotest.(check (list int64)) (Printf.sprintf "seed %Ld" seed) expected (first3 seed)
  in
  check_vectors 0L [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  check_vectors 1234567L [ 0x599ED017FB08FC85L; 0x2C73F08458540FA5L; 0x883EBCE5A3F27C77L ];
  let rng = Rng.create ~seed:42L in
  Alcotest.(check int64)
    "float bits" (Int64.bits_of_float 0x1.7bae644c5fd6dp-1)
    (Int64.bits_of_float (Rng.float rng));
  let rng = Rng.create ~seed:42L in
  let child = Rng.split rng in
  Alcotest.(check int64) "split child" 0x57E1FABA65107204L (Rng.next_int64 child);
  Alcotest.(check int64) "split parent" 0x28EFE333B266F103L (Rng.next_int64 rng)

let prop_shuffle_permutation =
  Q.Test.make ~name:"shuffle is a permutation" ~count:200
    Q.Gen.(pair int64 (list_size (int_bound 20) small_int))
    (fun (seed, l) ->
      let rng = Rng.create ~seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_rng_pick () =
  let rng = Rng.create ~seed:1L in
  for _ = 1 to 50 do
    checkb "pick member" true (List.mem (Rng.pick rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick rng []))

(* {1 Dist} *)

let test_dist_means () =
  checkf "const" 15.0 (Dist.mean (Dist.Constant 15.0));
  checkf "uniform" 150.0 (Dist.mean (Dist.uniform_around 150.0));
  checkf "exp" 42.0 (Dist.mean (Dist.Exponential { mean = 42.0 }));
  checkf "sexp" 100.0 (Dist.mean (Dist.Shifted_exponential { min = 20.0; mean = 100.0 }))

let test_dist_sample_ranges () =
  let rng = Rng.create ~seed:5L in
  for _ = 1 to 1000 do
    let u = Dist.sample (Dist.uniform_around 100.0) rng in
    checkb "uniform range" true (u >= 50.0 && u < 150.0);
    let s = Dist.sample (Dist.Shifted_exponential { min = 10.0; mean = 20.0 }) rng in
    checkb "sexp min" true (s >= 10.0);
    checkb "const" true (Dist.sample (Dist.Constant 3.0) rng = 3.0)
  done

let test_dist_parse () =
  let roundtrip s =
    match Dist.of_string s with
    | Ok d -> Dist.to_string d
    | Error e -> Alcotest.fail e
  in
  Alcotest.check Alcotest.string "const" "const:15" (roundtrip "const:15");
  Alcotest.check Alcotest.string "uniform" "uniform:10:20" (roundtrip "uniform:10:20");
  Alcotest.check Alcotest.string "exp" "exp:150" (roundtrip "exp:150");
  Alcotest.check Alcotest.string "sexp" "sexp:50:150" (roundtrip "sexp:50:150");
  Alcotest.check Alcotest.string "bare number is uniform-around" "uniform:75:225" (roundtrip "150");
  checkb "garbage rejected" true (Result.is_error (Dist.of_string "nope:1"));
  checkb "inverted uniform rejected" true (Result.is_error (Dist.of_string "uniform:9:3"))

(* {1 Engine} *)

(* The engine's heap on random schedules: times drawn from a small range
   force many ties, and each event records its schedule index. *)
let fire_order times =
  let e = Engine.create () in
  let fired = ref [] in
  List.iteri
    (fun i t -> Engine.schedule_at e ~time:(float_of_int t) (fun () -> fired := (t, i) :: !fired))
    times;
  ignore (Engine.run e);
  List.rev !fired

let prop_engine_time_order =
  Q.Test.make ~name:"events fire in time order" ~count:500
    Q.Gen.(list_size (int_bound 50) (int_range 0 100))
    (fun times -> List.map fst (fire_order times) = List.sort compare times)

let prop_engine_tie_order =
  Q.Test.make ~name:"equal-time events fire in schedule order" ~count:300
    Q.Gen.(list_size (int_bound 40) (int_bound 3))
    (fun times ->
      let fired = fire_order times in
      List.for_all
        (fun t ->
          let idx = List.filter_map (fun (t', i) -> if t = t' then Some i else None) fired in
          idx = List.sort compare idx)
        [ 0; 1; 2; 3 ])

(* The heap against a sorted model across growth past 64, 128 and 256
   entries, with a [reset] part-way: relative ([schedule]) and absolute
   ([schedule_at], possibly in the past) times from small ranges force
   ties and clamping, steps interleave with both, and after every
   operation [pending] matches the model. Each event records its id, so
   a step must fire the model's (time, schedule order) minimum. *)
type engine_op = After of int | At of int | Step

module Model = Set.Make (struct
  type t = float * int * int (* time, schedule order, id *)

  let compare (t1, s1, _) (t2, s2, _) = compare (t1, s1) (t2, s2)
end)

let gen_engine_phase ~lo ~hi =
  Q.Gen.(
    list_size (int_range lo hi)
      (frequency
         [ (6, map (fun d -> After d) (int_bound 7)); (1, map (fun k -> At k) (int_bound 400));
           (2, return Step) ]))

let prop_engine_slots =
  Q.Test.make ~name:"interleaved schedules, steps and a reset" ~count:100
    Q.Gen.(pair (gen_engine_phase ~lo:700 ~hi:1000) (gen_engine_phase ~lo:100 ~hi:900))
    (fun (before, after) ->
      let e = Engine.create () in
      let fired = ref (-1) in
      let model = ref Model.empty and order = ref 0 and clock = ref 0.0 and id = ref 0 in
      let peak = ref 0 in
      let apply op =
        (match op with
        | After d ->
            let i = !id in
            incr id;
            Engine.schedule e ~after:(float_of_int d) (fun () -> fired := i);
            model := Model.add (!clock +. float_of_int d, !order, i) !model;
            incr order
        | At k ->
            let i = !id in
            incr id;
            Engine.schedule_at e ~time:(float_of_int k) (fun () -> fired := i);
            model := Model.add (Float.max !clock (float_of_int k), !order, i) !model;
            incr order
        | Step -> (
            match Model.min_elt_opt !model with
            | None -> if Engine.step e then failwith "step on an empty queue fired"
            | Some ((time, _, i) as m) ->
                if not (Engine.step e) then failwith "step found no event";
                if !fired <> i then failwith (Printf.sprintf "fired %d, expected %d" !fired i);
                if Engine.now e <> time then failwith "clock not at the event's time";
                model := Model.remove m !model;
                clock := time));
        peak := max !peak (Model.cardinal !model);
        if Engine.pending e <> Model.cardinal !model then failwith "pending disagrees"
      in
      List.iter apply before;
      let first = !id in
      if !peak <= 256 then failwith "the first phase never grew the heap past 256";
      Engine.reset e;
      model := Model.empty;
      order := 0;
      clock := 0.0;
      if Engine.pending e <> 0 || Engine.now e <> 0.0 then failwith "reset left state";
      List.iter apply after;
      while not (Model.is_empty !model) do
        apply Step
      done;
      (* Every event scheduled since the reset has fired. *)
      Engine.run e = Engine.Drained && Engine.events_processed e = !id - first)

(* A popped callback and the callbacks [reset] drops are no longer
   reachable from the engine: the heap keeps no closure (and nothing it
   captures) alive past its event. *)
let[@inline never] park e cells i =
  let cell = ref i in
  Weak.set cells i (Some cell);
  Engine.schedule e ~after:(float_of_int (i + 1)) (fun () -> incr cell)

let test_engine_releases_callbacks () =
  let n = 200 and popped = 50 in
  let e = Engine.create () in
  let cells = Weak.create n in
  for i = 0 to n - 1 do
    park e cells i
  done;
  for _ = 1 to popped do
    ignore (Engine.step e)
  done;
  Gc.full_major ();
  let live lo hi = List.filter (fun i -> Weak.check cells i) (List.init (hi - lo) (( + ) lo)) in
  Alcotest.check Alcotest.(list int) "popped callbacks released" [] (live 0 popped);
  checki "parked callbacks retained" (n - popped) (List.length (live popped n));
  Engine.reset e;
  Gc.full_major ();
  Alcotest.check Alcotest.(list int) "reset drops parked callbacks" [] (live 0 n);
  (* Keeps the engine itself reachable across the collection above. *)
  checki "nothing pending after reset" 0 (Engine.pending e)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~after:10.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~after:5.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~after:10.0 (fun () -> log := "c" :: !log);
  (* same time as "b": scheduling order preserved *)
  Alcotest.check
    (Alcotest.testable
       (fun ppf o -> Format.pp_print_string ppf (match o with Engine.Drained -> "drained" | _ -> "?"))
       ( = ))
    "drained" Engine.Drained (Engine.run e);
  Alcotest.check Alcotest.(list string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  checkf "clock at last event" 10.0 (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~after:1.0 (fun () ->
      incr fired;
      Engine.schedule e ~after:1.0 (fun () -> incr fired));
  ignore (Engine.run e);
  checki "both fired" 2 !fired;
  checki "events processed" 2 (Engine.events_processed e)

let test_engine_horizon () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~after:5.0 (fun () -> incr fired);
  Engine.schedule e ~after:50.0 (fun () -> incr fired);
  (match Engine.run ~until:10.0 e with
  | Engine.Horizon_reached -> ()
  | _ -> Alcotest.fail "expected horizon");
  checki "only first fired" 1 !fired;
  checkf "clock clamped" 10.0 (Engine.now e);
  checki "one pending" 1 (Engine.pending e)

let test_engine_event_limit () =
  let e = Engine.create () in
  let rec forever () = Engine.schedule e ~after:1.0 forever in
  forever ();
  match Engine.run ~max_events:100 e with
  | Engine.Event_limit -> ()
  | _ -> Alcotest.fail "expected event limit"

let test_engine_past_clamped () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.schedule e ~after:10.0 (fun () ->
      Engine.schedule_at e ~time:3.0 (fun () -> times := Engine.now e :: !times));
  ignore (Engine.run e);
  Alcotest.check Alcotest.(list (float 1e-9)) "clamped to now" [ 10.0 ] !times

(* {1 Trace} *)

let test_trace_determinism () =
  let mk () =
    let tr = Trace.create () in
    Trace.record tr ~time:1.0 (fun () -> "hello");
    Trace.record tr ~time:2.0 (fun () -> "world");
    tr
  in
  Alcotest.check Alcotest.int64 "equal digests" (Trace.digest (mk ())) (Trace.digest (mk ()));
  let other = Trace.create () in
  Trace.record other ~time:1.0 (fun () -> "different");
  checkb "different digest" true (Trace.digest other <> Trace.digest (mk ()))

(* Pins the FNV-1a fold over each record's time bits and text: a
   fractional time and an empty text included. *)
let test_trace_digest_golden () =
  let tr = Trace.create () in
  Trace.record tr ~time:0.0 (fun () -> "send n0->n1 request");
  Trace.record tr ~time:12.375 (fun () -> "");
  Trace.record tr ~time:150.1 (fun () -> "recv n1->n0 grant");
  Alcotest.check Alcotest.string "digest" "eeccfb66731a1d66"
    (Printf.sprintf "%016Lx" (Trace.digest tr))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dcs_sim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "splitmix64 vectors" `Quick test_rng_splitmix_vectors;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          qt prop_rng_float_unit;
          qt prop_rng_int_bound;
          qt prop_shuffle_permutation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "means" `Quick test_dist_means;
          Alcotest.test_case "sample ranges" `Quick test_dist_sample_ranges;
          Alcotest.test_case "parse" `Quick test_dist_parse;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "nested" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "horizon" `Quick test_engine_horizon;
          Alcotest.test_case "event limit" `Quick test_engine_event_limit;
          Alcotest.test_case "past clamped" `Quick test_engine_past_clamped;
          qt prop_engine_time_order;
          qt prop_engine_tie_order;
          qt prop_engine_slots;
          Alcotest.test_case "callbacks released" `Quick test_engine_releases_callbacks;
        ] );
      ( "trace",
        [
          Alcotest.test_case "determinism" `Quick test_trace_determinism;
          Alcotest.test_case "digest golden" `Quick test_trace_digest_golden;
        ] );
    ]
