(* The event queue orders only immediates: [keys] (a flat float array, so
   comparisons compile to primitive float compares), [seqs] (schedule
   order, the tie-break deterministic runs rely on) and [slots], the index
   of the event's callback in [vals]. A callback stays in its slot from
   schedule to pop, so reordering moves no pointer and pays no write
   barrier: an event costs one [caml_modify] to park its callback and one
   to clear it. The positions of [slots] outside the pending entries hold
   the free slots: a popped entry's slot stays where it was, and an
   insert takes the slot at the position it grows into.

   The three ordered arrays hold pending events in one of two shapes:

   - a sorted run, ascending by (time, seq) in [head, head + size), while
     at most [run_max] events are pending. A pop advances [head]; an
     insert scans from the back, because a new event is usually the
     latest one, and shifts the later entries up by one;
   - a binary heap in [0, size) above that, until a pop leaves fewer than
     [run_min]. The gap between the two bounds keeps a queue near
     [run_max] from changing shape on every event.

   A sorted run is already a heap, so run to heap is one blit to index 0;
   heap to run pops the fewer than [run_min] entries in order.

   The 64-node end-to-end workloads keep a few dozen events pending: a
   mean of 19 (at most 123) on the airline mix, 29 to 41 (at most 88) on
   a hot lock. There a pop from the run is one load and an insert a short
   scan, where the heap pays two data-dependent float compares per level
   on every pop. The largest runtime test peaks at 4,505 pending, which
   needs the heap. *)

(* The bound comes from two measurements (EXPERIMENTS.md "A sorted-run
   event queue", 2-vCPU x86-64 host). Replaying the recorded queue
   operations of the 64-node end-to-end workloads, the run costs 23 ns
   per operation where the heap costs 36 (airline), and 18 against 30
   (hot lock), about the same for any bound from 96 up. bench/suite.ml's
   "engine steady N pending" rows insert each event at a random depth,
   the run's worst case: there the run wins by 8-12 % at 16 pending and
   ties at 32, and the heap wins by 12-14 % at 64, 1.4 times at 128 and
   twice at 256. 128 is the smallest power of two that keeps both
   workloads (at most 123 pending) in the run throughout. *)
let run_max = 128
let run_min = run_max / 4

(* Single-field float record: a mutable simulation clock that updates in
   place instead of allocating a fresh box per event (a [mutable float]
   field in the mixed-type record below would re-box on every store). *)
type clock = { mutable time : float }

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : (unit -> unit) array;
  mutable head : int;  (* first pending entry; always 0 in a heap *)
  mutable size : int;
  mutable heap : bool;
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
    head = 0;
    size = 0;
    heap = false;
    next_seq = 0;
    clock = { time = 0.0 };
    processed = 0;
    tick = None;
  }

let set_tick t hook = t.tick <- hook

let reset t =
  (* Drop queued callbacks explicitly so the retained capacity does not
     keep closures (and whatever they capture) alive across runs. *)
  for i = t.head to t.head + t.size - 1 do
    t.vals.(t.slots.(i)) <- nothing
  done;
  t.head <- 0;
  t.size <- 0;
  t.heap <- false;
  t.next_seq <- 0;
  t.clock.time <- 0.0;
  t.processed <- 0

let now t = t.clock.time

(* Move the pending entries to index 0. [slots] is permuted by swaps, so
   the free slots end up past the entries. *)
let[@inline never] compact t =
  let n = t.size and h = t.head in
  Array.blit t.keys h t.keys 0 n;
  Array.blit t.seqs h t.seqs 0 n;
  let slots = t.slots in
  for i = 0 to n - 1 do
    let free = slots.(i) in
    slots.(i) <- slots.(h + i);
    slots.(h + i) <- free
  done;
  t.head <- 0

(* Double the capacity; every entry keeps its position, and the new
   slots [cap, cap') are free. *)
let[@inline never] grow t =
  let cap = Array.length t.keys in
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

(* Ordering: time first, schedule order (seqs) as the tie-break. The
   scans and sifts move the hole instead of swapping (one array write per
   step per array) and use [unsafe_get]/[unsafe_set]: every index lies in
   the pending entries or the one position past them, already checked
   against the capacity. *)

(* A new event carries the largest seq, so on a time tie it sorts after
   the incumbent: inserts compare times only. *)
let run_insert t ~time ~seq f =
  let cap = Array.length t.keys in
  if t.head + t.size = cap then if 2 * t.size <= cap && cap > 0 then compact t else grow t;
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let head = t.head in
  let i = ref (head + t.size) in
  let slot = Array.unsafe_get slots !i in
  Array.unsafe_set t.vals slot f;
  t.size <- t.size + 1;
  while !i > head && Array.unsafe_get keys (!i - 1) > time do
    let j = !i - 1 in
    Array.unsafe_set keys !i (Array.unsafe_get keys j);
    Array.unsafe_set seqs !i (Array.unsafe_get seqs j);
    Array.unsafe_set slots !i (Array.unsafe_get slots j);
    i := j
  done;
  Array.unsafe_set keys !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let[@inline never] heap_insert t ~time ~seq f =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let i = ref t.size in
  let slot = Array.unsafe_get slots !i in
  Array.unsafe_set t.vals slot f;
  t.size <- !i + 1;
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

(* Drop the heap's root: the last entry sifts down from the root, and the
   root's slot goes to the position the heap vacates. *)
let drop_root t =
  t.size <- t.size - 1;
  let last = t.size in
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  let root = Array.unsafe_get slots 0 in
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
  Array.unsafe_set slots last root

(* Heap to run: pop the remaining [m] entries in order into the top [m]
   positions, swapping each with the free slot there. The heap only
   shrinks from [m], and the capacity is above [run_max] > [2 * m], so
   the two never overlap. *)
let[@inline never] to_run t =
  let m = t.size in
  let base = Array.length t.keys - m in
  let keys = t.keys and seqs = t.seqs and slots = t.slots in
  for j = 0 to m - 1 do
    let key = keys.(0) and seq = seqs.(0) and slot = slots.(0) in
    let free = slots.(base + j) in
    drop_root t;
    slots.(t.size) <- free;
    keys.(base + j) <- key;
    seqs.(base + j) <- seq;
    slots.(base + j) <- slot
  done;
  t.head <- base;
  t.size <- m;
  t.heap <- false

(* Run to heap: a sorted run is already a heap. *)
let[@inline never] to_heap t =
  compact t;
  t.heap <- true

let[@inline never] invalid_time time =
  invalid_arg (Printf.sprintf "Engine.schedule_at: time %g is not a number" time)

let schedule_at t ~time f =
  let now = t.clock.time in
  (* One compare on the common path; NaN fails both. *)
  let time = if time >= now then time else if time < now then now else invalid_time time in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.heap then heap_insert t ~time ~seq f
  else if t.size < run_max then run_insert t ~time ~seq f
  else begin
    to_heap t;
    heap_insert t ~time ~seq f
  end

let schedule t ~after f =
  let after = if after < 0.0 then 0.0 else after in
  schedule_at t ~time:(t.clock.time +. after) f

let step t =
  if t.size = 0 then false
  else begin
    let h = t.head in
    let time = t.keys.(h) and slot = t.slots.(h) in
    let f = t.vals.(slot) in
    (* Release the popped callback so the queue does not retain it. *)
    t.vals.(slot) <- nothing;
    if t.heap then begin
      drop_root t;
      if t.size < run_min then to_run t
    end
    else begin
      t.head <- h + 1;
      t.size <- t.size - 1
    end;
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
        else if t.keys.(t.head) > horizon then begin
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
