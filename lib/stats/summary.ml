type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
}

let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; total = 0.0 }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x

let count t = t.n

let mean t = if t.n = 0 then 0.0 else t.mean

let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let min t = t.min

let max t = t.max

let total t = t.total

let merge_into ~dst ~src =
  if src.n > 0 then begin
    if dst.n = 0 then begin
      dst.n <- src.n;
      dst.mean <- src.mean;
      dst.m2 <- src.m2;
      dst.min <- src.min;
      dst.max <- src.max;
      dst.total <- src.total
    end
    else begin
      let n = dst.n + src.n in
      let delta = src.mean -. dst.mean in
      let mean = dst.mean +. (delta *. float_of_int src.n /. float_of_int n) in
      let m2 =
        dst.m2 +. src.m2
        +. (delta *. delta *. float_of_int dst.n *. float_of_int src.n /. float_of_int n)
      in
      dst.n <- n;
      dst.mean <- mean;
      dst.m2 <- m2;
      if src.min < dst.min then dst.min <- src.min;
      if src.max > dst.max then dst.max <- src.max;
      dst.total <- dst.total +. src.total
    end
  end
