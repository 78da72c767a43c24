(** Perf regression gate over dcs-bench-report JSON.

    Reads the [microbench_ns_per_run] and [microbench_minor_words_per_run]
    sections of two reports (a checked-in baseline and a fresh run) and
    flags every microbench whose per-run time grew by more than a
    tolerance, or whose per-run allocation grew at all beyond fit noise. Parsing is a
    purpose-built scanner for the report's own flat emission (string
    keys mapped to plain numbers) — not a general JSON parser; it is
    shared by [report.exe --baseline] and the gate's tests. *)

(** [microbench_of_json s] extracts the [(name, ns_per_run)] pairs of
    the {e first} ["microbench_ns_per_run"] object in [s]. The report
    emits its own section before the embedded ["before"]/["baseline"]
    reports, so the first occurrence is always the report's own.
    Raises [Failure] if the key or its object shape is missing. *)
val microbench_of_json : string -> (string * float) list

(** [minor_words_of_json s] is {!microbench_of_json} for the first
    ["microbench_minor_words_per_run"] object: [(name, words_per_run)]. *)
val minor_words_of_json : string -> (string * float) list

type verdict = {
  name : string;
  before : float;  (** baseline ns/run *)
  after : float;  (** fresh ns/run *)
  ratio : float;  (** after /. before *)
}

(** [regressions ~tolerance ~before ~after ()] returns a verdict for
    every benchmark present in both lists whose time grew beyond
    [tolerance] (e.g. [0.15] = fail above +15%), slowest relative
    growth first. Benchmarks present on only one side are ignored:
    adding or retiring a microbench is not a regression.

    With [~drift_correction:true], each after/before ratio is first
    divided by the {e median} ratio across all paired benches (clamped
    to at least 1.0). Uniform machine drift — every bench inflating
    together on a noisy shared host — then cancels out, while a
    regression confined to one bench still towers over the median.
    [ratio] in the verdict is the corrected ratio. *)
val regressions :
  ?drift_correction:bool ->
  tolerance:float ->
  before:(string * float) list ->
  after:(string * float) list ->
  unit ->
  verdict list

val pp_verdict : Format.formatter -> verdict -> unit

(** A row whose baseline allocation is 0 may read up to [zero_slack]
    (0.5) minor words/run, which absorbs bechamel's fit noise. *)
val zero_slack : float

(** Any other row may allocate [alloc_tolerance] (0.10 = +10%) more. *)
val alloc_tolerance : float

(** [allocation_regressions ~before ~after] returns a verdict for every
    benchmark present in both minor-words sections whose allocation
    broke its bound: above [zero_slack] for a 0 baseline (ratio
    [infinity]), above [1 + alloc_tolerance] times the baseline
    otherwise. Largest ratio first; one-sided rows are ignored. *)
val allocation_regressions :
  before:(string * float) list -> after:(string * float) list -> verdict list

val pp_alloc_verdict : Format.formatter -> verdict -> unit
