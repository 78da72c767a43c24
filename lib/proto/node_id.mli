(** Node identifiers.

    Nodes are numbered densely from 0; identifiers double as array indices
    in the runtime and as addresses in the transports. *)

type t = int
