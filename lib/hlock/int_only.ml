(* Int-only comparisons for the token service's per-message code, opened
   at the top of [Node] and [Msg]. In OCaml 5 a polymorphic compare,
   equality or hash is an external C call that switches stacks. Shadowed at
   [int], the operators compile to single instructions, and the type
   checker rejects any polymorphic use: compare options and lists by
   matching, keep ids as ints with -1 for none, look ids up with [mem_id],
   and keep per-id state in arrays indexed by id, not in hash tables. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( >= ) : int -> int -> bool = "%greaterequal"
external compare : int -> int -> int = "%compare"

let max (a : int) b = if a >= b then a else b

let rec mem_id (x : int) = function [] -> false | y :: tl -> x = y || mem_id x tl
