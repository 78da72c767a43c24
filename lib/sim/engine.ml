(* The event queue is a monomorphic float-keyed binary heap rather than a
   polymorphic one: with the key array statically typed [float array] the
   heap stays flat (unboxed floats) and comparisons compile to primitive
   float compares, so scheduling and dispatching an event allocates
   nothing beyond the caller's callback closure. Ties are broken by
   schedule order (seqs), which deterministic runs rely on.

   The heap orders only immediates: [keys], [seqs] and [slots], the index
   of the event's callback in [vals]. A callback stays in its slot from
   schedule to pop, so the sifts move no pointer and pay no write barrier:
   an event costs one [caml_modify] to park its callback and one to clear
   it. Free slots live in [slots] past the heap, [slots.(size)] first: a
   push takes that one, and a pop returns its slot to the position the
   shrinking heap just vacated. *)

(* Single-field float record: a mutable simulation clock that updates in
   place instead of allocating a fresh box per event (a [mutable float]
   field in the mixed-type record below would re-box on every store). *)
type clock = { mutable time : float }

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  clock : clock;
  mutable processed : int;
  mutable tick : (unit -> unit) option;
}

type outcome =
  | Drained
  | Horizon_reached
  | Event_limit

let nothing () = ()

let create () =
  {
    keys = [||];
    seqs = [||];
    slots = [||];
    vals = [||];
    size = 0;
    next_seq = 0;
    clock = { time = 0.0 };
    processed = 0;
    tick = None;
  }

let set_tick t hook = t.tick <- hook

let reset t =
  (* Drop queued callbacks explicitly so the retained capacity does not
     keep closures (and whatever they capture) alive across runs. *)
  for i = 0 to t.size - 1 do
    t.vals.(t.slots.(i)) <- nothing
  done;
  t.size <- 0;
  t.next_seq <- 0;
  t.clock.time <- 0.0;
  t.processed <- 0

let now t = t.clock.time

(* Grow when full. Every slot is taken then, so the old arrays are copied
   whole and the new slots [cap, cap') become the free ones. *)
let ensure_room t =
  let cap = Array.length t.keys in
  if t.size = cap then begin
    let cap' = if cap = 0 then 64 else 2 * cap in
    let keys = Array.make cap' 0.0 in
    let seqs = Array.make cap' 0 in
    let slots = Array.init cap' Fun.id in
    let vals = Array.make cap' nothing in
    Array.blit t.keys 0 keys 0 cap;
    Array.blit t.seqs 0 seqs 0 cap;
    Array.blit t.slots 0 slots 0 cap;
    Array.blit t.vals 0 vals 0 cap;
    t.keys <- keys;
    t.seqs <- seqs;
    t.slots <- slots;
    t.vals <- vals
  end

(* Ordering: time first, schedule order (seqs) as the tie-break. Both
   sifts move the hole instead of swapping — one array write per level
   per array — and use [unsafe_get]/[unsafe_set]: every index is bounded
   by [t.size], already checked against the capacity. *)

(* Pop the root; its callback must already have been taken out of its
   slot. *)
let remove_min t =
  t.size <- t.size - 1;
  let last = t.size in
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let freed = Array.unsafe_get slots 0 in
  if last > 0 then begin
    let key = Array.unsafe_get keys last in
    let seq = Array.unsafe_get seqs last in
    let slot = Array.unsafe_get slots last in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let c =
          let r = l + 1 in
          if r < last then begin
            let kl = Array.unsafe_get keys l and kr = Array.unsafe_get keys r in
            if kl < kr || (kl = kr && Array.unsafe_get seqs l < Array.unsafe_get seqs r) then l
            else r
          end
          else l
        in
        let ckey = Array.unsafe_get keys c in
        if ckey < key || (ckey = key && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set keys !i ckey;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else sifting := false
      end
    done;
    Array.unsafe_set keys !i key;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end;
  (* The sift wrote only below [last]: that position is now the top of
     the free-slot stack. *)
  Array.unsafe_set slots last freed

let schedule_at t ~time f =
  let time = if time < t.clock.time then t.clock.time else time in
  ensure_room t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let i = ref t.size in
  t.size <- !i + 1;
  let slot = Array.unsafe_get slots !i in
  Array.unsafe_set t.vals slot f;
  (* The new event carries the largest seq, so on a time tie it sorts
     after the incumbent: no seq comparison needed on the way up. *)
  let sifting = ref true in
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    let pk = Array.unsafe_get keys p in
    if time < pk then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else sifting := false
  done;
  Array.unsafe_set keys !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let schedule t ~after f =
  let after = if after < 0.0 then 0.0 else after in
  schedule_at t ~time:(t.clock.time +. after) f

let step t =
  if t.size = 0 then false
  else begin
    let time = t.keys.(0) and slot = t.slots.(0) in
    let f = t.vals.(slot) in
    (* Release the popped callback so the queue does not retain it. *)
    t.vals.(slot) <- nothing;
    remove_min t;
    t.clock.time <- time;
    t.processed <- t.processed + 1;
    f ();
    (match t.tick with None -> () | Some g -> g ());
    true
  end

let run ?until ?(max_events = 100_000_000) t =
  match until with
  | None ->
      (* Unbounded-horizon fast path: no option probing per event. *)
      let rec loop budget =
        if budget = 0 then Event_limit
        else if t.size = 0 then Drained
        else begin
          ignore (step t);
          loop (budget - 1)
        end
      in
      loop max_events
  | Some horizon ->
      let rec loop budget =
        if budget = 0 then Event_limit
        else if t.size = 0 then Drained
        else if t.keys.(0) > horizon then begin
          t.clock.time <- horizon;
          Horizon_reached
        end
        else begin
          ignore (step t);
          loop (budget - 1)
        end
      in
      loop max_events

let pending t = t.size

let events_processed t = t.processed
