(** Replayable fuzz-case files ([test/corpus/*.repro]).

    Line-oriented text, diff-friendly and hand-editable:

    {v
    dcs-fuzz/1
    expect fail
    seed 42
    nodes 6
    locks 1
    plan heal-partition        (omitted when none)
    mutation weak-freeze       (omitted when none)
    op at=0.000 node=3 lock=0 mode=R prio=0 hold=15.000 kind=acquire
    ...
    v}

    [expect] records the intended verdict so replay is a regression
    check in both directions: a pass-file that starts failing flags a
    protocol bug; a fail-file that starts passing flags a checker that
    went blind. Blank lines and [#]-comments are ignored. *)

type expect = Pass | Fail

type entry = { case : Fuzz.case; expect : expect }

val to_string : entry -> string
val of_string : string -> (entry, string) result
val write : path:string -> entry -> unit
val read : path:string -> (entry, string) result

(** [check entry] replays the case; [Ok verdict] iff it matches
    [expect]. *)
val check : entry -> (Fuzz.verdict, string * Fuzz.verdict) result
