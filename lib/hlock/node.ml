open Dcs_modes
open Dcs_proto
open Int_only

type mutation = Weak_freeze | Ignore_frozen

type config = {
  eager_release : bool;
  freezing : bool;
  reverse_all : bool;
  caching : bool;
  mutation : mutation option;
}

let default_config =
  {
    eager_release = false;
    freezing = true;
    reverse_all = false;
    caching = true;
    mutation = None;
  }

type t = {
  config : config;
  id : Node_id.t;
  peers : int;  (* cluster size; node ids are 0..peers-1 *)
  send : dst:Node_id.t -> Msg.t -> unit;
  (* Telemetry hook ({!Dcs_obs}): the embedding fills in time/lock/node.
     [None] costs one branch per lifecycle site and allocates nothing. *)
  obs : (Dcs_obs.Event.scope -> Dcs_obs.Event.kind -> unit) option;
  mutable token : bool;
  (* Node ids are ints with -1 for none, and modes that may be absent are
     Decision owned codes: the message path stores into these fields, and
     an int store is a plain write where an option or a pair would pay
     the GC write barrier. *)
  mutable parent : Node_id.t;  (* -1 while we hold the token *)
  mutable parent_stamp : int;  (* token-tenure knowledge when [parent] was set *)
  (* The node whose children-map currently accounts our subtree, and the
     epoch of that record. Usually equals [parent]; -1 when we own ⊥ or
     hold the token. *)
  mutable accounted_parent : Node_id.t;
  mutable accounted_epoch : int;
  (* Best-effort mirror of the mode the accounting parent records for us,
     as an owned code; Rule 5.2 sends a release exactly when owned drops
     below it. *)
  mutable last_reported : int;
  (* Per-mode counts of three multisets, five ints each (indexed by
     Mode.index from [held_at], [child_at] and [queue_at]): held
     instances, child records and plain queue entries. *)
  counts : int array;
  (* Held instances: [held_seqs.(i)] is held in the mode of index
     [held_modes.(i)], for [i < n_held], in no particular order. A node
     holds a handful of instances at once, so a lookup scans them. Their
     per-mode counts are summarised in [held_bits]: bit [i] is set iff
     the held count of mode index [i] is positive. *)
  mutable held_seqs : int array;
  mutable held_modes : int array;
  mutable n_held : int;
  mutable held_bits : int;
  (* Modes granted to this node that no local client currently holds, kept
     in the copyset Li/Hudak-style so re-acquisition is message-free
     (Rule 2); dropped on freeze/conflict (revocation). *)
  mutable cached : Mode_set.t;
  (* Copyset, indexed by child id: [child_mode.(c)] is the recorded
     mode's Mode.index + 1 (0: [c] is no child) and [child_epoch.(c)] the
     record's epoch. The per-mode child counts and their mask
     [child_bits] are kept beside it exactly like the held counts and
     [held_bits], so the owned mode never walks the copyset, and
     [n_children] counts the records. [child_ids] is the
     set of child ids as a bit set (see [ids_per_word]), so walks over the
     copyset cost per child, not per peer. The per-peer arrays
     ([sent_freeze] too) are [[||]] until the first record: most nodes
     never grant a copy. *)
  mutable child_mode : int array;
  mutable child_ids : int array;
  mutable child_epoch : int array;
  mutable child_bits : int;
  mutable n_children : int;
  (* Local queue in service order, head first, with the per-mode count of
     its plain entries and the number of its upgrade entries kept beside
     it exactly like the held counts, so the token's frozen set never
     walks the queue. *)
  mutable queue : Msg.request list;
  mutable queued_upgrades : int;
  mutable pending : Msg.request option;
  mutable frozen : Mode_set.t;
  (* Per peer, the Mode_set bits of the frozen set last sent to it (0:
     nothing). Entries outlive the child record they were sent under
     ([handle_token] drops the record only). *)
  mutable sent_freeze : int array;
  (* Children that may still need a Freeze: every child when
     [freeze_all] (the frozen set changed), else those in [freeze_kids]
     (their record was set). Any other child has been sent all of
     [frozen] it needs. Cleared by the walk in [refresh_freezes], and
     while nothing is frozen. *)
  mutable freeze_all : bool;
  mutable freeze_kids : Node_id.t list;
  mutable kick_marks : (Node_id.t * int) list;
  mutable tenure : int;  (* valid while we hold or last held the token *)
  (* Freshest known token location: its tenure and owner. *)
  mutable hint_stamp : int;
  mutable hint_owner : Node_id.t;
  mutable last_granter : Node_id.t;  (* -1: none *)
  (* Scratch bit set over [0, peers) in the [child_ids] layout: the ids a
     relayed request has visited, set and cleared within one
     [forward_onward] call. *)
  visited : int array;
  mutable next_seq : int;
  mutable clock : int;  (* Lamport *)
  mutable epoch_counter : int;
  (* Continuations of local requests and upgrades still waiting, seq → k,
     newest first; a node rarely has more than one waiting client. *)
  mutable waiters : (int * (int -> unit)) list;
  mutable sweep_restarts : int;  (* statistic, see [forward_onward] *)
}

let id_or_none = function Some p -> p | None -> -1
let id_opt p = if p < 0 then None else Some p

(* Per-peer bit sets ([child_ids], [visited]) keep 62 ids to an int word:
   bit [c mod 62] of word [c / 62] is set iff [c] is a member. Leaving bit
   62 (the sign bit) clear keeps every word positive, so [x land (-x)]
   isolates a word's lowest set bit, 2^k with k < 62. 2 is a primitive
   root mod 67, so those powers have distinct residues mod 67, and
   [bit_index] maps each residue back to k. *)
let ids_per_word = 62

let bit_index =
  let index = Array.make 67 0 in
  for k = 0 to ids_per_word - 1 do
    index.((1 lsl k) mod 67) <- k
  done;
  index

let visited_words peers = Array.make ((peers + ids_per_word - 1) / ids_per_word) 0

(* Ids a node will send to must name a peer: [restore] checks a
   snapshot's, which may come off the wire, and [make] the parent. *)
let check_id ~caller ~peers what c =
  if c < 0 || c >= peers then
    invalid_arg (Printf.sprintf "%s: %s id %d outside [0, %d)" caller what c peers)

(* The one node-record constructor, shared by [create] and [restore]: a
   node that holds nothing, records no child, queues nothing and has
   fresh clocks and counters. *)
let make ~caller ~config ~obs ~id ~peers ~send ~token ~parent =
  (* Freezes are the cache-revocation channel: without them a cached mode
     could block a conflicting writer forever. *)
  let config = if config.freezing then config else { config with caching = false } in
  if peers < 1 || id < 0 || id >= peers then invalid_arg (caller ^ ": id out of range");
  (match parent with Some p -> check_id ~caller ~peers "parent" p | None -> ());
  {
    config;
    id;
    peers;
    send;
    obs;
    token;
    parent = id_or_none parent;
    parent_stamp = 0;
    accounted_parent = -1;
    accounted_epoch = 0;
    last_reported = 0;
    counts = Array.make 15 0;
    held_seqs = [||];
    held_modes = [||];
    n_held = 0;
    held_bits = 0;
    cached = Mode_set.empty;
    child_mode = [||];
    child_ids = [||];
    child_epoch = [||];
    child_bits = 0;
    n_children = 0;
    queue = [];
    queued_upgrades = 0;
    pending = None;
    frozen = Mode_set.empty;
    sent_freeze = [||];
    freeze_all = false;
    freeze_kids = [];
    kick_marks = [];
    tenure = 0;
    hint_stamp = 0;
    hint_owner = (match parent with Some p -> p | None -> id);
    last_granter = -1;
    visited = visited_words peers;
    next_seq = 0;
    clock = 0;
    epoch_counter = 0;
    waiters = [];
    sweep_restarts = 0;
  }

let create ?(config = default_config) ?obs ~id ~peers ~is_token ~parent ~send () =
  if is_token && Option.is_some parent then
    invalid_arg "Hlock.Node.create: token node with a parent";
  if (not is_token) && Option.is_none parent then
    invalid_arg "Hlock.Node.create: non-token node without parent";
  make ~caller:"Hlock.Node.create" ~config ~obs ~id ~peers ~send ~token:is_token ~parent

(* {1 Views} *)

let id t = t.id
let is_token t = t.token
let parent t = id_opt t.parent

let held t =
  List.init t.n_held (fun i -> (t.held_seqs.(i), Mode.of_index t.held_modes.(i)))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let queue t = t.queue
let frozen t = t.frozen
let pending t = t.pending
let waiting t = List.length t.waiters
let sweep_restarts t = t.sweep_restarts

let held_at = 0
let child_at = 5
let queue_at = 10

(* Add [d] to the count of mode index [i] in the multiset at [at] and
   return [bits] with bit [i] set iff that count is now positive. *)
let count_step t at bits i d =
  let n = t.counts.(at + i) + d in
  t.counts.(at + i) <- n;
  if n > 0 then bits lor (1 lsl i) else bits land lnot (1 lsl i)

(* The position of [seq] in [seqs.(0 .. i)], or -1. Top-level, so a lookup
   allocates no closure. *)
let rec held_index seqs seq i =
  if i < 0 then -1 else if seqs.(i) = seq then i else held_index seqs seq (i - 1)

let held_slot t seq = held_index t.held_seqs seq (t.n_held - 1)

(* Held-multiset maintenance: every mutation of the held arrays goes
   through these so the held counts and [held_bits] can never drift. *)

let held_add t seq m =
  let i = held_slot t seq in
  let i =
    if i >= 0 then begin
      t.held_bits <- count_step t held_at t.held_bits t.held_modes.(i) (-1);
      i
    end
    else begin
      let n = t.n_held in
      if n = Array.length t.held_seqs then begin
        let grow a =
          let b = Array.make (max 4 (2 * n)) 0 in
          Array.blit a 0 b 0 n;
          b
        in
        t.held_seqs <- grow t.held_seqs;
        t.held_modes <- grow t.held_modes
      end;
      t.held_seqs.(n) <- seq;
      t.n_held <- n + 1;
      n
    end
  in
  t.held_modes.(i) <- Mode.index m;
  t.held_bits <- count_step t held_at t.held_bits (Mode.index m) 1

(* Drop held instance [seq] (the last one takes its place) and return its
   mode's index, or -1 if [seq] is not held. *)
let held_remove t seq =
  let i = held_slot t seq in
  if i < 0 then -1
  else begin
    let k = t.held_modes.(i) and last = t.n_held - 1 in
    t.held_seqs.(i) <- t.held_seqs.(last);
    t.held_modes.(i) <- t.held_modes.(last);
    t.n_held <- last;
    t.held_bits <- count_step t held_at t.held_bits k (-1);
    k
  end

(* Per-peer state. Lookups take any id — one outside [0, peers) is no
   child and was sent nothing — so a stray id from a message reads as
   unknown; writes index with bounds checks. *)

let peer_arrays t =
  if Array.length t.child_mode = 0 then begin
    t.child_mode <- Array.make t.peers 0;
    t.child_ids <- visited_words t.peers;
    t.child_epoch <- Array.make t.peers 0;
    t.sent_freeze <- Array.make t.peers 0
  end

(* [c]'s recorded mode index + 1, or 0 when [c] is no child. *)
let child_code t c = if c >= 0 && c < Array.length t.child_mode then t.child_mode.(c) else 0

let sent_freeze_bits t c =
  if c >= 0 && c < Array.length t.sent_freeze then t.sent_freeze.(c) else 0

let forget_freeze t c = if sent_freeze_bits t c <> 0 then t.sent_freeze.(c) <- 0

(* Copyset maintenance: every mutation of the copyset goes through these
   so the child counts, [child_bits] and [n_children] can never drift. *)

let child_set t c m epoch =
  peer_arrays t;
  let old = t.child_mode.(c) in
  if old > 0 then t.child_bits <- count_step t child_at t.child_bits (old - 1) (-1)
  else begin
    t.n_children <- t.n_children + 1;
    let w = c / ids_per_word in
    t.child_ids.(w) <- t.child_ids.(w) lor (1 lsl (c - (w * ids_per_word)))
  end;
  t.child_mode.(c) <- Mode.index m + 1;
  t.child_epoch.(c) <- epoch;
  t.child_bits <- count_step t child_at t.child_bits (Mode.index m) 1;
  if not (t.freeze_all || Mode_set.is_empty t.frozen) then t.freeze_kids <- c :: t.freeze_kids

let child_remove t c =
  let old = child_code t c in
  if old > 0 then begin
    t.child_mode.(c) <- 0;
    t.child_bits <- count_step t child_at t.child_bits (old - 1) (-1);
    t.n_children <- t.n_children - 1;
    let w = c / ids_per_word in
    t.child_ids.(w) <- t.child_ids.(w) land lnot (1 lsl (c - (w * ids_per_word)))
  end

(* Queue maintenance: every mutation of [t.queue] goes through these so
   the queue counts and [queued_upgrades] can never drift. *)

let queue_count t (r : Msg.request) d =
  if r.upgrade then t.queued_upgrades <- t.queued_upgrades + d
  else begin
    let i = queue_at + Mode.index r.mode in
    t.counts.(i) <- t.counts.(i) + d
  end

let queue_push t r =
  t.queue <- Msg.insert_by_service_order r t.queue;
  queue_count t r 1

(* [r] is the head of the queue and [rest] its tail. *)
let queue_pop t r rest =
  t.queue <- rest;
  queue_count t r (-1)

let queue_replace t q =
  t.queue <- q;
  for i = queue_at to queue_at + 4 do
    t.counts.(i) <- 0
  done;
  t.queued_upgrades <- 0;
  List.iter (fun r -> queue_count t r 1) q

let accounting t =
  if t.accounted_parent < 0 then None else Some (t.accounted_parent, t.accounted_epoch)

(* Fold over the copyset records in descending child id, so that consing
   builds a list in ascending id. Within a word, the recursion reaches the
   higher bits before it applies [f] to the lowest. *)
let fold_children_desc t f acc =
  let rec bits base x acc =
    if x = 0 then acc
    else begin
      let low = x land -x in
      let acc = bits base (x lxor low) acc in
      let c = base + bit_index.(low mod 67) in
      f c (Mode.of_index (t.child_mode.(c) - 1)) t.child_epoch.(c) acc
    end
  in
  let rec words w acc =
    if w < 0 then acc else words (w - 1) (bits (w * ids_per_word) t.child_ids.(w) acc)
  in
  words (Array.length t.child_ids - 1) acc

let children t = fold_children_desc t (fun c m _ acc -> (c, m) :: acc) []

let copyset_size t = t.n_children
let cached t = Mode_set.to_list t.cached

let retained t i = t.counts.(held_at + i) + ((Mode_set.to_bits t.cached lsr i) land 1)

(* The owned code of the strongest mode in a 5-bit mask (0 for none).
   Mode indices ascend in strength (IR, R, U, IW, W), so that is the
   highest set bit; between the equal-strength U and IW (which a correctly
   maintained copyset never records together) the higher index, IW, wins. *)
let top_code =
  Array.init 32 (fun bits ->
      let rec go i = if i < 0 || bits land (1 lsl i) <> 0 then i + 1 else go (i - 1) in
      go 4)

(* Owned mode (Definition 3) as a Decision code, allocation-free: the
   strongest held or cached mode and the strongest child record, from the
   count masks [held] and [kids]; held/cached modes win ties against child
   records. *)
let owned_code_masked t ~held ~kids =
  let own = top_code.(held lor Mode_set.to_bits t.cached) and kid = top_code.(kids) in
  if Decision.strength_of_code kid > Decision.strength_of_code own then kid else own

let owned_code t = owned_code_masked t ~held:t.held_bits ~kids:t.child_bits
let owned t = Decision.decode_owned (owned_code t)

(* [bits] without the one counted instance of mode index [i] in the
   multiset at [at]: the bit clears only when that instance is the mode's
   last. *)
let discount t at bits i = if t.counts.(at + i) = 1 then bits land lnot (1 lsl i) else bits

(* Owned code as seen when evaluating request [r]: an upgrade request masks
   the requester's own U contribution (Rule 7) — its held U grant, or its U
   child record. Only one U exists system-wide (U conflicts with U), so
   masking by mode is unambiguous. *)
let owned_code_for t (r : Msg.request) =
  if not r.upgrade then owned_code t
  else begin
    let held =
      let i = if r.requester = t.id then held_slot t r.seq else -1 in
      if i >= 0 then discount t held_at t.held_bits t.held_modes.(i) else t.held_bits
    in
    let kids =
      if child_code t r.requester = Mode.index Mode.U + 1 then
        discount t child_at t.child_bits (Mode.index Mode.U)
      else t.child_bits
    in
    owned_code_masked t ~held ~kids
  end

let owned_for t r = Decision.decode_owned (owned_code_for t r)

let is_frozen t m =
  t.config.freezing
  && (match t.config.mutation with Some Ignore_frozen -> false | Some Weak_freeze | None -> true)
  && Mode_set.mem m t.frozen

(* Every assignment of [t.frozen] funnels through here so telemetry sees the
   set deltas as Frozen/Unfrozen node events. *)
let set_frozen t next =
  let prev = t.frozen in
  t.frozen <- next;
  if Mode_set.is_empty next then begin
    (* Nothing frozen: no child can need a Freeze, and the next non-empty
       set marks every child again. *)
    t.freeze_all <- false;
    match t.freeze_kids with [] -> () | _ -> t.freeze_kids <- []
  end
  else if not (Mode_set.equal next prev) then t.freeze_all <- true;
  match t.obs with
  | None -> ()
  | Some f ->
      let added = Mode_set.diff next prev in
      let removed = Mode_set.diff prev next in
      if not (Mode_set.is_empty added) then f Dcs_obs.Event.Node (Dcs_obs.Event.Frozen added);
      if not (Mode_set.is_empty removed) then
        f Dcs_obs.Event.Node (Dcs_obs.Event.Unfrozen removed)

(* Drop cached (unheld) modes that conflict with [m]; returns true if any
   were dropped. A cache is a convenience copy — any conflicting request
   outranks it. *)
let revoke_conflicting t m =
  let doomed = Mode_set.inter t.cached (Decision.incompatible_bits m) in
  if Mode_set.is_empty doomed then false
  else begin
    t.cached <- Mode_set.diff t.cached doomed;
    true
  end

(* Copyset records as [(child, mode, epoch)] and the non-empty sent
   freezes as [(child, set)], both in ascending child id: the snapshot's
   and the printer's view of the per-peer arrays. *)
let child_records t = fold_children_desc t (fun c m e acc -> (c, m, e) :: acc) []

let sent_freezes t =
  let acc = ref [] in
  for c = Array.length t.sent_freeze - 1 downto 0 do
    let bits = t.sent_freeze.(c) in
    if bits <> 0 then acc := (c, Mode_set.of_bits bits) :: !acc
  done;
  !acc

(* The printer builds its line from strings, so printing adds no closure
   helper or C primitive to the token service's object file. *)
let id_text p = if p < 0 then "_" else "n" ^ string_of_int p
let owned_text = function None -> "_" | Some m -> Mode.to_string m
let list_text f l = "[" ^ String.concat "," (List.map f l) ^ "]"
let set_text s = "{" ^ String.concat "," (List.map Mode.to_string (Mode_set.to_list s)) ^ "}"

(* Every field of a request: requester, seq, mode (with [^] for an
   upgrade), timestamp, priority when not 0, hops, the token hint it
   carries and its relay path. *)
let request_text (r : Msg.request) =
  String.concat ""
    [
      "{n"; string_of_int r.requester; "#"; string_of_int r.seq; " "; Mode.to_string r.mode;
      (if r.upgrade then "^" else ""); " @"; string_of_int r.timestamp;
      (if r.priority = 0 then "" else " p" ^ string_of_int r.priority);
      " hops="; string_of_int r.hops;
      " hint="; string_of_int r.hint_stamp; "@"; id_text r.hint_owner;
      " path="; list_text string_of_int r.path; "}";
    ]

let pp_state ppf t =
  let field name v = name ^ "=" ^ v in
  Format.pp_print_string ppf
    (String.concat " "
       [
         "n" ^ string_of_int t.id ^ (if t.token then "*" else "");
         field "parent" (id_text t.parent);
         field "stamp" (string_of_int t.parent_stamp);
         field "acct" (id_text t.accounted_parent ^ "@" ^ string_of_int t.accounted_epoch);
         field "reported" (owned_text (Decision.decode_owned t.last_reported));
         field "cached" (set_text t.cached);
         field "children"
           (list_text
              (fun (c, m, e) -> id_text c ^ ":" ^ Mode.to_string m ^ "@" ^ string_of_int e)
              (child_records t));
         field "queue" (list_text request_text t.queue);
         field "frozen" (set_text t.frozen);
         field "sent" (list_text (fun (c, s) -> id_text c ^ ":" ^ set_text s) (sent_freezes t));
         field "tenure" (string_of_int t.tenure);
         field "hint" (string_of_int t.hint_stamp ^ "@" ^ id_text t.hint_owner);
         field "granter" (id_text t.last_granter);
         field "next_seq" (string_of_int t.next_seq);
         field "clock" (string_of_int t.clock);
         field "epochs" (string_of_int t.epoch_counter);
         field "owned" (owned_text (owned t));
         field "held"
           (list_text (fun (seq, m) -> "#" ^ string_of_int seq ^ ":" ^ Mode.to_string m) (held t));
         field "pending" (match t.pending with None -> "_" | Some r -> request_text r);
         field "waiting" (string_of_int (waiting t));
       ])

(* {1 Epochs and clocks} *)

let fresh_epoch t =
  t.epoch_counter <- t.epoch_counter + 1;
  t.epoch_counter

(* Record epochs at one node come from TWO counters: [grant_copy] draws from
   ours, but a token handoff records the sender at an epoch drawn from the
   sender's counter. The stale-release guard in [handle_release] compares by
   equality, so it is sound only if successive epochs for the same pair never
   collide. Lamport-merge every epoch received in a relationship-establishing
   message before we next draw: then any later draw, by either side, is
   strictly greater than every earlier epoch of the pair. Without this, a
   grant re-using a token-era epoch lets the pre-grant weakening release
   through, leaving the parent's record under the child's owned mode — and a
   record that under-covers narrows freezes past the very mode a queued
   writer needs revoked, so it starves. *)
let absorb_epoch t e = if e > t.epoch_counter then t.epoch_counter <- e

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let observe_clock t ts = t.clock <- max t.clock ts + 1

(* Our freshest token hint: ourselves at our tenure while we hold it. *)
let hint_stamp t = if t.token then t.tenure else t.hint_stamp
let hint_owner t = if t.token then t.id else t.hint_owner

let observe_hint t (r : Msg.request) =
  if r.hint_stamp > hint_stamp t then begin
    t.hint_stamp <- r.hint_stamp;
    t.hint_owner <- r.hint_owner
  end

let set_parent t p ~stamp =
  t.parent <- p;
  t.parent_stamp <- stamp

(* {1 Freezing (Rule 6)} *)

(* The frozen set child [c] (recorded at [cm]) is owed, recorded as sent:
   empty when it equals what was last sent. Additive only (the paper: "a
   mode, once frozen, will not be sent a freeze message again"): no
   explicit un-freeze traffic. A stale frozen mode merely makes a child
   forward instead of granting, and clears itself when the child leaves the
   copyset or changes accounting parent. *)
let take_freeze t c cm =
  let relevant =
    (* Anything the child could grant, or could be caching somewhere in its
       subtree (no stronger than its recorded mode), must be frozen there —
       freezing both stops grants and revokes caches. *)
    Mode_set.inter t.frozen (Decision.le_strength_bits cm)
  in
  let previous = Mode_set.of_bits (sent_freeze_bits t c) in
  let combined = Mode_set.union relevant previous in
  if Mode_set.equal combined previous then Mode_set.empty
  else begin
    t.sent_freeze.(c) <- Mode_set.to_bits combined;
    combined
  end

(* Union of the freeze sets of the queue's upgrade entries, each under its
   own masked owned code (Rule 7). Upgrades sort first in service order,
   so the walk stops at the first plain entry. *)
let rec upgrade_freezes t acc = function
  | (r : Msg.request) :: rest when r.upgrade ->
      upgrade_freezes t
        (Mode_set.union acc (Decision.freeze_set ~owned:(owned_code_for t r) r.mode))
        rest
  | _ -> acc

(* Send child [c] a Freeze if it needs one. *)
let notify_freeze t c =
  let k = child_code t c in
  if k > 0 then begin
    let frozen = take_freeze t c (Mode.of_index (k - 1)) in
    if not (Mode_set.is_empty frozen) then t.send ~dst:c (Msg.Freeze { frozen })
  end

(* [notify_freeze] every child in ascending id, from bit [lo] of word [w]
   of [child_ids] on: the lowest remaining set bit is the next child. The
   word is re-read after every notification, so a send that re-enters this
   node and changes the copyset is seen exactly as a scan of every peer
   slot would see it. *)
let rec notify_children_from t w lo =
  if w < Array.length t.child_ids then begin
    let x = t.child_ids.(w) land ((-1) lsl lo) in
    if x = 0 then notify_children_from t (w + 1) 0
    else begin
      let low = x land -x in
      let k = bit_index.(low mod 67) in
      notify_freeze t ((w * ids_per_word) + k);
      notify_children_from t w (k + 1)
    end
  end

(* Recompute the token node's frozen set (Rule 6) from its queue. *)
let recompute_frozen t =
  if t.token then begin
    (* Every plain entry of one mode needs the same freeze set under the
       one unmasked owned code, so the queued modes' counts suffice; only
       upgrades see a masked code. *)
    let owned = owned_code t in
    let fs = ref Mode_set.empty in
    for i = 0 to 4 do
      if t.counts.(queue_at + i) > 0 then
        fs := Mode_set.union !fs (Decision.freeze_set ~owned (Mode.of_index i))
    done;
    let fs = if t.queued_upgrades > 0 then upgrade_freezes t !fs t.queue else !fs in
    let fs =
      match t.config.mutation with
      | Some Weak_freeze -> (
          (* Seeded fault (Dcs_check): weakened Table 2(b) — the strongest
             mode every queued request needs frozen is left grantable. *)
          match Compat.strongest (Mode_set.to_list fs) with
          | Some m -> Mode_set.remove m fs
          | None -> fs)
      | _ -> fs
    in
    set_frozen t fs
  end

(* Propagate the frozen set. A child is notified only of the frozen modes
   it could actually grant given the mode we record for it; notifications
   are diffed against what was last sent, and only sent when something
   changed. Visit only the marked children (none while nothing is frozen:
   the marks are clear then) and notify those that need a Freeze in
   ascending id; each update is derived at its send, so a transport that
   delivers synchronously (and re-enters this node) never sends a stale
   set. *)
let propagate_freezes t =
  if t.freeze_all then begin
    t.freeze_all <- false;
    (match t.freeze_kids with [] -> () | _ -> t.freeze_kids <- []);
    notify_children_from t 0 0
  end
  else if not (List.is_empty t.freeze_kids) then begin
    let marked = t.freeze_kids in
    t.freeze_kids <- [];
    List.iter (notify_freeze t) (List.sort_uniq Int.compare marked)
  end

let refresh_freezes t =
  if t.config.freezing then begin
    recompute_frozen t;
    propagate_freezes t
  end

(* {1 Release reporting (Rule 5.2)} *)

(* Send owned-mode changes to the accounting parent: mandatory on weakening
   (Rule 5.2), on every release under the eager ablation, and on the rare
   strengthening repair after a grant overtook an in-flight release. *)
let report_owned t ~force =
  let q = t.accounted_parent in
  if (not t.token) && q >= 0 then begin
    let oc = owned_code t in
    let lc = t.last_reported in
    let weakened = Decision.strength_of_code oc < Decision.strength_of_code lc in
    let strengthened = Decision.strength_of_code lc < Decision.strength_of_code oc in
    if weakened || strengthened || force then begin
      t.last_reported <- oc;
      t.send ~dst:q
        (Msg.Release { new_owned = Decision.decode_owned oc; epoch = t.accounted_epoch });
      if oc = 0 then begin
        t.accounted_parent <- -1;
        (* Detached from the copyset: no freeze duties remain, and no
           un-freeze would reach us; drop any stale frozen set. *)
        set_frozen t Mode_set.empty
      end
    end
  end

(* {1 Grant paths} *)

let clear_pending_if_match t (r : Msg.request) =
  match t.pending with
  | Some p when Msg.request_same p r -> t.pending <- None
  | _ -> ()

(* {1 Client continuations}

   A grant reaches its client at the grant point: the delivery or client
   call that granted it runs the waiting continuation there. A grant inside
   the very [request]/[upgrade] call that asked for it finds no waiter yet;
   that call runs the continuation itself once its protocol work is done,
   just before it returns (see [request] and [upgrade]). *)

let rec find_waiter seq = function
  | [] -> None
  | (s, k) :: tl -> if s = seq then Some k else find_waiter seq tl

let rec remove_waiter seq = function
  | [] -> []
  | ((s, _) as w) :: tl -> if s = seq then tl else w :: remove_waiter seq tl

let resume t seq =
  match find_waiter seq t.waiters with
  | None -> ()
  | Some k ->
      t.waiters <- remove_waiter seq t.waiters;
      k seq

(* The tail of a client call: run [k] now if the call itself granted [seq]
   (it now holds [mode]), else park it until the grant point. *)
let continue_or_wait t seq mode k =
  let i = held_slot t seq in
  if i >= 0 && t.held_modes.(i) = Mode.index mode then k seq
  else t.waiters <- (seq, k) :: t.waiters

(* Grant to a local client: enter the critical section. [via_token] marks
   grants delivered by a token transfer (Rule 3.2) for telemetry; every
   other path — Rule 2 message-free, Rule 3/3.1 copy grants, token-node
   local service — counts as a local grant. *)
let grant_self ?(via_token = false) t (r : Msg.request) =
  clear_pending_if_match t r;
  held_add t r.seq r.mode;
  (match t.obs with
  | None -> ()
  | Some f ->
      f
        (Dcs_obs.Event.Span { requester = r.requester; seq = r.seq })
        (if via_token then Dcs_obs.Event.Granted_token { mode = r.mode; hops = r.hops }
         else Dcs_obs.Event.Granted_local { mode = r.mode; hops = r.hops }));
  resume t r.seq

let complete_upgrade t (r : Msg.request) =
  clear_pending_if_match t r;
  if held_slot t r.seq >= 0 then held_add t r.seq Mode.W;
  (match t.obs with
  | None -> ()
  | Some f ->
      f (Dcs_obs.Event.Span { requester = r.requester; seq = r.seq }) Dcs_obs.Event.Upgraded);
  resume t r.seq

(* Copy grant (Rule 3): adopt the requester as a child at (at least) the
   granted mode and notify it. The grant carries the frozen set the child
   is owed (Rule 6), recomputed first, so the walk after it has no Freeze
   left to send that child. *)
let grant_copy t (r : Msg.request) =
  let epoch = fresh_epoch t in
  (* Fresh grant = fresh freeze relationship: the child (re)sets its frozen
     state when it adopts us as accounting parent, so anything we believe
     we already sent must be re-sent. *)
  forget_freeze t r.requester;
  let mode =
    (* Never let the record under-cover: a stronger previous record is
       carried over because its weakening release may still be in flight
       (safety depends on records covering descendants). The grant tells
       the child what we recorded, so if the release really did cross —
       and is about to be dropped as stale-epoch — the child re-reports
       the weakening under the fresh epoch instead. *)
    let k = child_code t r.requester in
    if k > 0 && Mode.stronger_eq (Mode.of_index (k - 1)) r.mode then Mode.of_index (k - 1)
    else r.mode
  in
  child_set t r.requester mode epoch;
  let frozen =
    if t.config.freezing then begin
      recompute_frozen t;
      take_freeze t r.requester mode
    end
    else Mode_set.empty
  in
  t.send ~dst:r.requester
    (Msg.Grant
       { req = { r with Msg.hint_stamp = hint_stamp t; hint_owner = hint_owner t };
         epoch; recorded = mode; frozen });
  if t.config.freezing then propagate_freezes t

(* Token transfer (Rule 3.2 operational): hand over the token, our queue and
   the frozen set; stay in the tree as a child if we still own something. *)
let transfer_token t (r : Msg.request) =
  child_remove t r.requester;
  forget_freeze t r.requester;
  let residual = owned_code t in
  let sender_epoch = fresh_epoch t in
  let tok =
    let serving = { r with Msg.hint_stamp = t.tenure + 1; hint_owner = r.Msg.requester } in
    Msg.Token
      { serving; sender_owned = Decision.decode_owned residual; sender_epoch; queue = t.queue;
        frozen = t.frozen }
  in
  t.hint_stamp <- t.tenure + 1;
  t.hint_owner <- r.Msg.requester;
  (* Point at the queue's future *last* owner (Naimi's tail), not the next
     one: new requests arriving here must go where the token will be last,
     or they walk the whole service chain hop by hop. Only U/W entries are
     certain future owners; fall back to the immediate transfer target. *)
  let tail =
    (* One pass for the last certain and the last remote entry. With no
       certain future owner queued, the last remote requester is the best
       tail guess — on transfer-dominated locks it will own the token; on
       copy-dominated ones it will at worst be a child of the new token
       node (one extra hop). *)
    let rec last ~certain ~remote = function
      | [] -> if certain >= 0 then certain else if remote >= 0 then remote else r.requester
      | (q : Msg.request) :: rest ->
          if q.requester = t.id then last ~certain ~remote rest
          else
            let certain =
              if Mode.equal q.mode Mode.U || Mode.equal q.mode Mode.W then q.requester else certain
            in
            last ~certain ~remote:q.requester rest
    in
    last ~certain:(-1) ~remote:(-1) t.queue
  in
  queue_replace t [];
  t.token <- false;
  set_parent t tail ~stamp:(t.tenure + 1);
  t.accounted_parent <- (if residual = 0 then -1 else r.requester);
  t.accounted_epoch <- sender_epoch;
  t.last_reported <- residual;
  set_frozen t Mode_set.empty;
  t.send ~dst:r.requester tok;
  (* Un-freeze our remaining children; the new token node re-freezes as
     needed once it recomputes from the merged queue. *)
  refresh_freezes t

let enqueue t (r : Msg.request) =
  if r.requester = t.id then clear_pending_if_match t r;
  queue_push t r;
  (match t.obs with
  | None -> ()
  | Some f -> f (Dcs_obs.Event.Span { requester = r.requester; seq = r.seq }) Dcs_obs.Event.Queued);
  refresh_freezes t

(* The visited set of a relayed path lives in [t.visited] for the span of
   one [forward_onward] call. [mark_path] sets the bit of every id of
   [path] in [0, peers); ids outside that range, which a decoded frame may
   carry, have no bit. *)
let mark t p =
  let w = p / ids_per_word in
  t.visited.(w) <- t.visited.(w) lor (1 lsl (p - (w * ids_per_word)))

let rec mark_path t = function
  | [] -> ()
  | p :: tl ->
      if p >= 0 && p < t.peers then mark t p;
      mark_path t tl

let is_marked t p =
  let w = p / ids_per_word in
  t.visited.(w) land (1 lsl (p - (w * ids_per_word))) <> 0

(* [p] if it is a node id (not the -1 "none" sentinel) that [path] has not
   visited, else -1: a bit test for ids in [0, peers), a walk of [path]
   for any other. *)
let unvisited t path p =
  if p < 0 then -1
  else if p < t.peers then if is_marked t p then -1 else p
  else if mem_id p path then -1
  else p

(* The lowest id in [0, peers) without a bit, from word [w] on, or -1. *)
let rec first_unmarked t w =
  if w >= Array.length t.visited then -1
  else begin
    let base = w * ids_per_word in
    let n = t.peers - base in
    let x = lnot t.visited.(w) land ((1 lsl (if n < ids_per_word then n else ids_per_word)) - 1) in
    if x = 0 then first_unmarked t (w + 1) else base + bit_index.((x land -x) mod 67)
  end

(* Relay a request one hop toward the token. Normally that hop is our
   routing parent; if the parent has already seen this request (a transient
   routing cycle — stale reversal can briefly form one), divert: prefer
   live copyset links (accounting chains end at the token), then the
   lowest-id unvisited node. The path grows at every hop, so a
   diverted request sweeps the membership in at most [peers] hops and must
   reach a node that takes custody — the token holder in the worst case.
   One visited node is not excluded: the owner of a token hint strictly
   fresher than the request's. The token reached it after the request
   passed, so the request goes there and its path restarts here (repair
   7). Each such restart raises the request's hint stamp, a token tenure,
   so restarts are bounded by token moves and the sweep is a rare
   fallback. Candidates are tried in a fixed order without building a
   list, each against the path's bit set, and the request is copied
   once. *)
let forward_onward ?via t (r : Msg.request) =
  mark_path t r.Msg.path;
  let path =
    if is_marked t t.id then r.Msg.path
    else begin
      mark t t.id;
      t.id :: r.Msg.path
    end
  in
  let my_stamp = hint_stamp t and hinted = hint_owner t in
  let fresher = my_stamp > r.Msg.hint_stamp in
  let h_stamp = if fresher then my_stamp else r.Msg.hint_stamp in
  let h_owner = if fresher then hinted else r.Msg.hint_owner in
  let via = id_or_none via in
  let restart_to =
    if fresher && hinted <> t.id && hinted >= 0 && hinted < t.peers && is_marked t hinted then hinted
    else -1
  in
  let toward_hint = if restart_to >= 0 then restart_to else unvisited t path hinted in
  (* An explicit override first, then the stamped parent edge versus our
     gossiped token hint, fresher stamp first (the parent on a tie). *)
  let dst = unvisited t path via in
  let dst =
    if dst >= 0 then dst
    else
      let p = t.parent in
      if p < 0 then toward_hint
      else if t.parent_stamp >= my_stamp then
        let d = unvisited t path p in
        if d >= 0 then d else toward_hint
      else if toward_hint >= 0 then toward_hint
      else unvisited t path p
  in
  let dst =
    if dst >= 0 then dst
    else begin
      (* Divert along the copyset links ([via], already found visited
         above, would come first), then sweep to the lowest-id unvisited
         node. *)
      let d = unvisited t path h_owner in
      let d = if d >= 0 then d else unvisited t path t.accounted_parent in
      let d = if d >= 0 then d else unvisited t path t.last_granter in
      if d >= 0 then d else first_unmarked t 0
    end
  in
  (* Clear the bit set before anything can re-enter this node. *)
  for w = 0 to Array.length t.visited - 1 do
    t.visited.(w) <- 0
  done;
  (* No candidate is left exactly when the sweep is exhausted: everyone
     visited without custody, the token kept moving ahead of the sweep.
     Restart it; randomized latencies make repeated evasion vanishingly
     unlikely. Resetting the sweep must NOT keep the requester excluded:
     the token can land at the requester while its request is mid-sweep (a
     token transfer serving another of its requests), and a request
     without local custody — forwarded past an unrelated pending — exists
     only in flight. Excluding the requester then makes the sweep skip the
     one node that can serve it, forever. *)
  let exhausted = dst < 0 in
  if exhausted then t.sweep_restarts <- t.sweep_restarts + 1;
  let dst = if not exhausted then dst else if t.parent >= 0 then t.parent else (t.id + 1) mod t.peers in
  let path = if exhausted || (restart_to >= 0 && dst = restart_to) then [ t.id ] else path in
  let r = { r with Msg.hops = r.Msg.hops + 1; path; hint_stamp = h_stamp; hint_owner = h_owner } in
  (match t.obs with
  | None -> ()
  | Some f ->
      f
        (Dcs_obs.Event.Span { requester = r.Msg.requester; seq = r.Msg.seq })
        (Dcs_obs.Event.Forwarded { dst }));
  t.send ~dst (Msg.Request r)

(* {1 Grant decisions (Rules 3, 3.1, 3.2 and 7)} *)

(* Rule 3/3.1 at a non-token node: may we grant [r] out of our owned mode?
   Never in a frozen mode (Rule 6). Never to our own accounting parent:
   that grant would close a two-node accounting cycle. A longer cycle
   would need a grant from deeper in the grantee's subtree, which
   [handle_grant] refuses (repair 13). *)
let may_child_grant t (r : Msg.request) =
  Decision.can_child_grant ~owned:(owned_code t) r.mode
  && (not (is_frozen t r.mode))
  && r.requester <> t.accounted_parent

(* The token node serves [r], which its owned code [mo] for [r] lets it
   grant: complete our own upgrade (Rule 7), grant ourselves, hand the
   token over when no owned mode could keep it (Rule 3.2), or copy-grant
   (Rule 3). Reads never take the token: an IR or R requester is not a
   future exclusive owner, so the token copy-grants it even out of a
   weaker owned mode and stays where the next writer will look for it
   (repair 14). *)
let serve_at_token t (r : Msg.request) mo =
  if r.requester = t.id then begin
    if r.upgrade then complete_upgrade t r else grant_self t r
  end
  else
    match r.mode with
    | Mode.IR | Mode.R -> grant_copy t r
    | Mode.IW | Mode.U | Mode.W ->
        if Decision.token_must_transfer ~owned:mo r.mode then transfer_token t r
        else grant_copy t r

(* Keep [keep] in custody and push [out] toward the token, where it will
   be served (liveness). *)
let recirculate t ~keep out =
  queue_replace t keep;
  List.iter (fun r -> forward_onward t r) out;
  refresh_freezes t

(* {1 Queue service (Rule 4 operational, Rule 5.1)} *)

(* Strictly FIFO: serve the head while servable, stop at the first head that
   is not. The frozen set never blocks the head — freezing exists to protect
   queued requests from newcomers, and a later entry's freeze set may well
   contain the head's mode. *)
let rec serve_queue t =
  match t.queue with
  | [] -> ()
  | r :: rest ->
      if t.token then begin
        if revoke_conflicting t r.mode then refresh_freezes t;
        let mo = owned_code_for t r in
        if Decision.token_can_grant ~owned:mo r.mode then begin
          queue_pop t r rest;
          refresh_freezes t;
          serve_at_token t r mo;
          if t.token then serve_queue t
        end
        else refresh_freezes t
      end
      else if may_child_grant t r then begin
        queue_pop t r rest;
        if r.requester = t.id then grant_self t r else grant_copy t r;
        serve_queue t
      end
      else if Option.is_none t.pending then
        (* Nothing further will come through to serve these locally. *)
        recirculate t ~keep:[] t.queue

(* Any change to held/children modes may enable queued grants, change freeze
   sets, and require an upward report. *)
let after_owned_change t =
  report_owned t ~force:t.config.eager_release;
  refresh_freezes t;
  serve_queue t

(* {1 Request handling (Rules 2, 3, 4)} *)

(* Rule 2 at a non-token node: our own request. *)
let request_own t (r : Msg.request) =
  match t.pending with
  | Some p when Msg.request_same p r ->
      (* Our own pending request was relayed back to us (transient cycle
         while a token is in flight): keep it moving. *)
      forward_onward t r
  | _ when may_child_grant t r -> (* Message-free local acquisition. *) grant_self t r
  | None ->
      t.pending <- Some r;
      forward_onward t r
  | Some p ->
      if Decision.queueable ~pending:(Decision.code_of_mode p.mode) r.mode then enqueue t r
      else forward_onward t r

(* Rule 4.1 / Table 2(a): take custody of [r] until our own pending [p]
   comes through. Custody edges must not cycle (that would deadlock both
   requests): cross-mode absorption descends the mode hierarchy strictly,
   and same-mode absorption is restricted to requests younger than our
   pending — so every custody chain ends at the token or at a serving node
   (repair 10). Higher priorities are never absorbed: holding them hostage
   behind a lower-priority pending would be a distributed priority
   inversion; they keep moving toward the token's queue. *)
let absorbs (p : Msg.request) (r : Msg.request) =
  Decision.queueable ~pending:(Decision.code_of_mode p.mode) r.mode
  && ((not (Mode.equal p.mode r.mode)) || Msg.request_lt p r)

(* Dynamic path reversal (the §2 tree mechanics the protocol is built on),
   applied to requests certain to end in a token transfer: no owned mode
   can copy-grant U or W, so their requester is the future root — Naimi's
   re-pointing invariant. IR, R and IW never reverse: reads never take the
   token, and an IW requester rarely does, so a pointer at one of them
   rarely still leads to the token when a later relay follows it, and it
   overwrites the transfer's tail pointer, which usually does (repair 7).
   Any cycles this still leaves are rendered harmless by path-carrying
   relays (see forward_onward). *)
let reverse_path t (r : Msg.request) =
  let stamp = max r.Msg.hint_stamp (hint_stamp t) in
  match r.mode with
  | Mode.U | Mode.W -> set_parent t r.Msg.requester ~stamp
  | Mode.IR | Mode.R | Mode.IW -> if t.config.reverse_all then set_parent t r.Msg.requester ~stamp

(* Rules 3.1 and 4.1 at a non-token node: a remote request. *)
let request_remote t (r : Msg.request) =
  if may_child_grant t r then grant_copy t r
  else
    match t.pending with
    | Some p when absorbs p r -> enqueue t r
    | Some _ ->
        (* Older same-mode request: it is ahead of us in the global order;
           send it along the trail our own request took — the liveliest
           route toward the token we know. *)
        let target = if hint_stamp t >= r.Msg.hint_stamp then hint_owner t else r.Msg.hint_owner in
        forward_onward ~via:target t r
    | None ->
        forward_onward t r;
        reverse_path t r

let handle_request t (r : Msg.request) =
  (* Any request — including our own — outranks cached convenience copies
     that conflict with it. *)
  let revoked = revoke_conflicting t r.mode in
  if t.token then begin
    let mo = owned_code_for t r in
    if Decision.token_can_grant ~owned:mo r.mode && not (is_frozen t r.mode) then begin
      serve_at_token t r mo;
      if t.token then begin
        refresh_freezes t;
        serve_queue t
      end
    end
    else begin
      enqueue t r;
      (* The revocation may have unblocked the existing queue head. *)
      if revoked then serve_queue t
    end
  end
  else begin
    if r.requester = t.id then request_own t r else request_remote t r;
    (* A revoked cache weakened our owned mode: tell the copyset parent so
       the conflicting request stops waiting on us. Every path above must
       surface it — including the relayed-back escape: our request may
       circle for a while, and until the weakening is reported the old
       granter's record of us blocks exactly the conflicting mode we are
       asking for. *)
    if revoked then begin
      report_owned t ~force:false;
      refresh_freezes t
    end
  end

(* {1 Message handlers} *)

let accounted_by t src = t.accounted_parent >= 0 && t.accounted_parent = src

let detach_from_old_parent t ~src =
  let q = t.accounted_parent in
  if q >= 0 && q <> src then
    t.send ~dst:q (Msg.Release { new_owned = None; epoch = t.accounted_epoch })

let handle_grant t ~src (r : Msg.request) ~epoch ~recorded =
  observe_clock t r.timestamp;
  observe_hint t r;
  absorb_epoch t epoch;
  if
    t.token
    || t.accounted_parent >= 0
       && t.accounted_parent <> src
       && Decision.strength_of_code (Decision.code_of_mode recorded)
          <= Decision.strength_of_code (owned_code t)
  then begin
    (* A grant we cannot adopt (repair 13). Either the token reached us
       while this request was still circulating, and recording [src] would
       make the root a child of a non-token node; or another parent
       already accounts for at least what [src] recorded (our request was
       granted late, after we came to own a covering mode under that
       parent), and moving that mode under [src] would send a detach to
       the old parent and a strengthening report to [src] that reaches the
       token only after the old parent has handed it on, recording our
       weaker share. The second test also catches a granter in our own
       subtree: our owned mode covers every record in it (Definition 3),
       so at least what that granter could grant us. Adopting either would
       close a copyset cycle in which each node's owned mode is justified
       only by the next, so no freeze or release could unwind it. Cancel
       [src]'s record and handle the request as if the grant had never
       arrived: serve it if we may, else send it on. *)
    t.send ~dst:src (Msg.Release { new_owned = None; epoch });
    clear_pending_if_match t r;
    handle_request t r
  end
  else begin
    let same_parent = accounted_by t src in
    detach_from_old_parent t ~src;
    (* A new accounting parent owns our freeze state from now on; stale sets
       from the old one must not linger (they would never be un-frozen). *)
    if not same_parent then set_frozen t Mode_set.empty;
    t.accounted_parent <- src;
    (* Rule C: a copy grant [src] sent before the token we handed it
       arrived carries an older epoch than the record [src] has kept of us
       since; going back to it would get our next release dropped as
       stale (repair 5). *)
    t.accounted_epoch <- (if same_parent then max epoch t.accounted_epoch else epoch);
    t.last_granter <- src;
    (* Deliberate departure from Figure 4's "Parent <- Sender": a copy grant
       updates only the copyset (accounting) relation, never the routing
       parent. Grant edges point backward toward old roots; mixed with path
       reversal they can close a routing cycle that traps the grantee's own
       next U/W request in an eternal two-node relay (see DESIGN.md §2 for
       the counterexample). Routing pointers move only on U/W reversal and
       token transfer — Naimi's proven discipline. *)
    (* [recorded] is exactly what the granter wrote into its record for us —
       [r.mode], or a stronger carried-over mode whose release may have
       crossed this grant and be headed for a stale-epoch drop. Adopting it
       makes the repair below bidirectional. *)
    t.last_reported <- Decision.code_of_mode recorded;
    grant_self t r;
    (* Repair both crossing directions: strengthen if we own more than the
       record (a release crossed the grant and already landed), weaken if we
       own less (our release is about to be dropped as stale — without this
       the carried-over record pins a mode nobody owns and the conflicting
       request it blocks starves). *)
    report_owned t ~force:false;
    refresh_freezes t;
    serve_queue t
  end

let handle_token t ~src (m : Msg.t) =
  match m with
  | Msg.Token { serving; sender_owned; sender_epoch; queue; frozen } ->
      observe_clock t serving.timestamp;
      absorb_epoch t sender_epoch;
      detach_from_old_parent t ~src;
      t.accounted_parent <- -1;
      t.last_reported <- 0;
      t.token <- true;
      t.parent <- -1;
      t.last_granter <- src;
      t.tenure <- max serving.Msg.hint_stamp (t.hint_stamp + 1);
      (* Rule E: a record newer than [sender_epoch] comes from a copy grant
         we sent [src] before the token arrived; [src] adopts that grant's
         epoch and releases under it, so the record keeps its epoch and
         at least its mode (repair 5). *)
      let k = child_code t src in
      if k > 0 && t.child_epoch.(src) > sender_epoch then begin
        match sender_owned with
        | Some m when Mode.stronger_eq m (Mode.of_index (k - 1)) ->
            child_set t src m t.child_epoch.(src)
        | Some _ | None -> ()
      end
      else begin
        match sender_owned with
        | Some m -> child_set t src m sender_epoch
        | None -> child_remove t src
      end;
      queue_replace t (Msg.merge_queues queue t.queue);
      set_frozen t frozen;
      grant_self ~via_token:true t serving;
      refresh_freezes t;
      serve_queue t
  | _ -> assert false

let handle_release t ~src ~new_owned ~epoch =
  (* A stale epoch or an unknown child: superseded. *)
  if child_code t src > 0 && t.child_epoch.(src) = epoch then begin
    (match new_owned with
    | None ->
        child_remove t src;
        forget_freeze t src
    | Some m -> child_set t src m epoch);
    after_owned_change t
  end

let handle_freeze t ~src ~frozen =
  if t.config.freezing && not t.token then begin
    (* Cache revocation honours any freeze — even one that crossed a detach
       in flight: dropping a convenience copy is always safe and keeps
       writers from waiting on phantom records. *)
    let dropped = not (Mode_set.is_empty (Mode_set.inter t.cached frozen)) in
    t.cached <- Mode_set.diff t.cached frozen;
    (* The granting restriction, however, follows the live copyset: only
       the current accounting parent may extend our frozen set. *)
    if accounted_by t src then begin
      set_frozen t (Mode_set.union t.frozen frozen);
      refresh_freezes t
    end;
    if dropped then after_owned_change t else serve_queue t
  end

let handle_msg t ~src msg =
  match msg with
  | Msg.Request r ->
      observe_clock t r.timestamp;
      observe_hint t r;
      handle_request t r
  | Msg.Grant { req; epoch; recorded; frozen } ->
      handle_grant t ~src req ~epoch ~recorded;
      (* Handled exactly as a Freeze delivered right behind the grant. *)
      if not (Mode_set.is_empty frozen) then handle_freeze t ~src ~frozen
  | Msg.Token _ -> handle_token t ~src msg
  | Msg.Release { new_owned; epoch } -> handle_release t ~src ~new_owned ~epoch
  | Msg.Freeze { frozen } -> handle_freeze t ~src ~frozen

(* {1 Client API} *)

(* A fresh request of a local client for [mode], stamped now; it opens (or,
   for an upgrade, re-opens) the span of [seq]. *)
let client_request t ~seq ~mode ~upgrade ~priority =
  let r =
    { Msg.requester = t.id; seq; mode; upgrade; timestamp = tick t; priority; hops = 0;
      hint_stamp = hint_stamp t; hint_owner = hint_owner t; path = [ t.id ] }
  in
  (match t.obs with
  | None -> ()
  | Some f ->
      f (Dcs_obs.Event.Span { requester = t.id; seq }) (Dcs_obs.Event.Requested { mode; priority }));
  r

let request ?(priority = 0) t ~mode ~on_granted =
  if priority < 0 then invalid_arg "Hlock.Node.request: negative priority";
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  handle_request t (client_request t ~seq ~mode ~upgrade:false ~priority);
  continue_or_wait t seq mode on_granted;
  seq

let release t ~seq =
  let k = held_remove t seq in
  if k < 0 then invalid_arg (Printf.sprintf "Hlock.Node.release: #%d not held at node %d" seq t.id);
  let m = Mode.of_index k in
  (match t.obs with
  | None -> ()
  | Some f -> f (Dcs_obs.Event.Span { requester = t.id; seq }) (Dcs_obs.Event.Released { mode = m }));
  if t.config.caching && not (is_frozen t m) then t.cached <- Mode_set.add m t.cached;
  after_owned_change t

let upgrade t ~seq ~on_upgraded =
  let i = held_slot t seq in
  if i < 0 then invalid_arg (Printf.sprintf "Hlock.Node.upgrade: #%d not held" seq);
  match Mode.of_index t.held_modes.(i) with
  | Mode.U ->
      if not t.token then
        invalid_arg "Hlock.Node.upgrade: protocol invariant violated (U holder must be the token node)";
      let r = client_request t ~seq ~mode:Mode.W ~upgrade:true ~priority:0 in
      ignore (revoke_conflicting t Mode.W);
      let mo = owned_code_for t r in
      if Decision.token_can_grant ~owned:mo Mode.W then begin
        complete_upgrade t r;
        refresh_freezes t;
        serve_queue t
      end
      else
        (* Rule 7: the upgrade outranks every queued request — holding U is
           a reservation for the next write. The service order places
           upgrades ahead of everything, so it is served as soon as the
           remaining readers drain; everything else freezes meanwhile. *)
        enqueue t r;
      continue_or_wait t seq Mode.W on_upgraded
  | m ->
      invalid_arg
        (Printf.sprintf "Hlock.Node.upgrade: #%d held in %s, not U" seq (Mode.to_string m))

let rec marked_in requester seq = function
  | [] -> false
  | (n, s) :: tl -> (n = requester && s = seq) || marked_in requester seq tl

(* Watchdog against long custody waits: a remote request absorbed at a
   pending node waits for that node's own request to come through.
   [absorbs] keeps custody chains acyclic, so every such wait ends (repair
   10); re-circulating requests held for a whole watchdog period sends them
   on to the token node, which serves strictly by its queue, and shortens
   the tail of the wait. Drivers call this periodically on nodes that look
   stalled; it is a no-op otherwise. *)
let kick t =
  if (not t.token) && Option.is_some t.pending then begin
    (* Two-phase: only re-circulate requests that were already in custody at
       the previous kick — anything younger has waited less than one kick
       period and is almost certainly fine. *)
    let marked (r : Msg.request) = marked_in r.requester r.seq t.kick_marks in
    let stale, keep =
      List.partition (fun (r : Msg.request) -> r.requester <> t.id && marked r) t.queue
    in
    if not (List.is_empty stale) then recirculate t ~keep stale;
    t.kick_marks <-
      List.filter_map
        (fun (r : Msg.request) -> if r.requester <> t.id then Some (r.requester, r.seq) else None)
        t.queue
  end
  else match t.kick_marks with [] -> () | _ -> t.kick_marks <- []

(* {1 State snapshots (shard migration)}

   A snapshot is the node's complete persistent protocol state — routing
   and accounting tree anchors, the copyset with its epochs, cached and
   frozen mode sets, the local queue, clocks and counters — as plain data,
   so a lock object's whole per-node population can travel in a shard
   handoff message and be rebuilt on the receiving shard. Only quiescent
   nodes export: locally held instances and the in-flight pending request
   reference live client callbacks, which cannot cross a process boundary;
   the sharding layer parks and replays the traffic around the handoff
   instead, and for the same reason no client continuation may be waiting.
   The transient [kick_marks] are deliberately dropped: they hold
   staleness marks for a pending request, which must be [None] at export. *)

type snapshot = {
  s_token : bool;
  s_parent : Node_id.t option;
  s_parent_stamp : int;
  s_accounted_parent : Node_id.t option;
  s_accounted_epoch : int;
  s_last_reported : Mode.t option;
  s_cached : Mode_set.t;
  s_children : (Node_id.t * Mode.t * int) list;
  s_queue : Msg.request list;
  s_frozen : Mode_set.t;
  s_sent_freeze : (Node_id.t * Mode_set.t) list;
  s_tenure : int;
  s_hint : int * Node_id.t;
  s_last_granter : Node_id.t option;
  s_next_seq : int;
  s_clock : int;
  s_epoch_counter : int;
}

let export t =
  if t.n_held > 0 then
    invalid_arg "Hlock.Node.export: node holds granted instances";
  if Option.is_some t.pending then invalid_arg "Hlock.Node.export: node has a pending request";
  if not (List.is_empty t.waiters) then
    invalid_arg "Hlock.Node.export: a client is still waiting";
  {
    s_token = t.token;
    s_parent = id_opt t.parent;
    s_parent_stamp = t.parent_stamp;
    s_accounted_parent = id_opt t.accounted_parent;
    s_accounted_epoch = t.accounted_epoch;
    s_last_reported = Decision.decode_owned t.last_reported;
    s_cached = t.cached;
    s_children = child_records t;
    s_queue = t.queue;
    s_frozen = t.frozen;
    s_sent_freeze = sent_freezes t;
    s_tenure = t.tenure;
    s_hint = (t.hint_stamp, t.hint_owner);
    s_last_granter = id_opt t.last_granter;
    s_next_seq = t.next_seq;
    s_clock = t.clock;
    s_epoch_counter = t.epoch_counter;
  }

let restore ?(config = default_config) ?obs ~id ~peers ~send (s : snapshot) =
  let caller = "Hlock.Node.restore" in
  let t = make ~caller ~config ~obs ~id ~peers ~send ~token:s.s_token ~parent:s.s_parent in
  (* Snapshot ids index the per-peer arrays and name message targets, and
     a snapshot may come off the wire: check them against [peers]. *)
  let check what c = check_id ~caller ~peers what c in
  List.iter (fun (c, _, _) -> check "child" c) s.s_children;
  List.iter (fun (c, _) -> check "sent-freeze" c) s.s_sent_freeze;
  Option.iter (check "accounted-parent") s.s_accounted_parent;
  Option.iter (check "last-granter") s.s_last_granter;
  check "hint-owner" (snd s.s_hint);
  List.iter
    (fun (r : Msg.request) ->
      check "queued requester" r.requester;
      check "queued hint-owner" r.hint_owner;
      List.iter (check "queued path") r.path)
    s.s_queue;
  t.parent_stamp <- s.s_parent_stamp;
  t.accounted_parent <- id_or_none s.s_accounted_parent;
  t.accounted_epoch <- s.s_accounted_epoch;
  t.last_reported <- Decision.owned_code s.s_last_reported;
  t.cached <- s.s_cached;
  t.frozen <- s.s_frozen;
  (* Every child may need the restored frozen set. *)
  t.freeze_all <- not (Mode_set.is_empty s.s_frozen);
  t.tenure <- s.s_tenure;
  t.hint_stamp <- fst s.s_hint;
  t.hint_owner <- snd s.s_hint;
  t.last_granter <- id_or_none s.s_last_granter;
  t.next_seq <- s.s_next_seq;
  t.clock <- s.s_clock;
  t.epoch_counter <- s.s_epoch_counter;
  queue_replace t s.s_queue;
  List.iter (fun (c, m, e) -> child_set t c m e) s.s_children;
  List.iter
    (fun (c, ms) ->
      if not (Mode_set.is_empty ms) then begin
        peer_arrays t;
        t.sent_freeze.(c) <- Mode_set.to_bits ms
      end)
    s.s_sent_freeze;
  t
