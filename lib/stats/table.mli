(** ASCII table and series rendering for the experiment harness. *)

(** [render ~header rows]: fixed-width ASCII table; column widths are
    computed from the contents. All rows must have the same arity as
    [header]. *)
val render : header:string list -> string list list -> string

(** [csv ~header rows]: comma-separated output (naive quoting: fields
    containing commas or quotes are double-quoted). *)
val csv : header:string list -> string list list -> string

(** [ascii_plot ~series] plots one or more [(label, points)] series on
    shared axes, 72 columns wide and 20 rows high, using a distinct
    glyph per series, with a legend.
    Intended for quick terminal inspection of the figure shapes. *)
val ascii_plot : series:(string * (float * float) list) list -> string
