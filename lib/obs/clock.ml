type t = unit -> float

(* Monotonic clamp: gettimeofday can step backwards (NTP slew); telemetry
   spans must not. The benign race on [last] between threads can at worst
   return a slightly stale maximum, never a regression below a value this
   thread already observed. *)
let wall () =
  let last = ref neg_infinity in
  fun () ->
    let now = Unix.gettimeofday () *. 1000.0 in
    let v = if now > !last then now else !last in
    last := v;
    v
