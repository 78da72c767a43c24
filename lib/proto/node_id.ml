type t = int
