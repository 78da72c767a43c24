let render ~header rows =
  let cols = List.length header in
  List.iter
    (fun r -> if List.length r <> cols then invalid_arg "Table.render: ragged row")
    rows;
  let widths = Array.make cols 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  measure header;
  List.iter measure rows;
  let b = Buffer.create 256 in
  let pad i s = Printf.sprintf "%-*s" widths.(i) s in
  let emit_row row =
    Buffer.add_string b (String.concat " | " (List.mapi pad row));
    Buffer.add_char b '\n'
  in
  emit_row header;
  Buffer.add_string b
    (String.concat "-+-" (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  Buffer.add_char b '\n';
  List.iter emit_row rows;
  Buffer.contents b

let csv_field f =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') f then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
  else f

let csv ~header rows =
  let line row = String.concat "," (List.map csv_field row) in
  String.concat "\n" (line header :: List.map line rows) ^ "\n"

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@' |]

let ascii_plot ~series =
  let width = 72 and height = 20 in
  let all_points = List.concat_map snd series in
  if all_points = [] then "(empty plot)\n"
  else begin
    let xs = List.map fst all_points and ys = List.map snd all_points in
    let xmin = List.fold_left Float.min infinity xs
    and xmax = List.fold_left Float.max neg_infinity xs in
    let ymin = Float.min 0.0 (List.fold_left Float.min infinity ys)
    and ymax = List.fold_left Float.max neg_infinity ys in
    let xspan = if xmax -. xmin < 1e-9 then 1.0 else xmax -. xmin in
    let yspan = if ymax -. ymin < 1e-9 then 1.0 else ymax -. ymin in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun si (_, points) ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        List.iter
          (fun (x, y) ->
            let col = int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1)) in
            let row = int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1)) in
            let row = height - 1 - row in
            if row >= 0 && row < height && col >= 0 && col < width then grid.(row).(col) <- glyph)
          points)
      series;
    let b = Buffer.create 1024 in
    Array.iteri
      (fun i line ->
        let yval = ymax -. (float_of_int i /. float_of_int (height - 1) *. yspan) in
        Buffer.add_string b (Printf.sprintf "%8.1f |" yval);
        Buffer.add_string b (String.init width (fun j -> line.(j)));
        Buffer.add_char b '\n')
      grid;
    Buffer.add_string b (Printf.sprintf "%8s +%s\n" "" (String.make width '-'));
    Buffer.add_string b (Printf.sprintf "%8s  %-8.0f%*s%8.0f\n" "" xmin (width - 16) "" xmax);
    List.iteri
      (fun si (label, _) ->
        Buffer.add_string b
          (Printf.sprintf "%9s%c = %s\n" "" glyphs.(si mod Array.length glyphs) label))
      series;
    Buffer.contents b
  end
