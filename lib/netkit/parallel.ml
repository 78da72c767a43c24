(* SplitMix64 (Steele et al., "Fast splittable pseudorandom number
   generators"): the golden-ratio increment spaces the salts along the
   stream, and the mix finalizer decorrelates neighbouring inputs. The
   same constants drive Dcs_sim.Rng; reusing them here keeps every seed
   in the system drawn from one family. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let cell_seed ~base ~salt =
  (* salt + 1 so that salt 0 still displaces the base seed. *)
  mix64 (Int64.add base (Int64.mul (Int64.of_int (salt + 1)) golden_gamma))

let map ?jobs f cells =
  let n = Array.length cells in
  let jobs =
    match jobs with Some j -> max 1 (min j n) | None -> max 1 (min (Domain.recommended_domain_count ()) n)
  in
  if jobs <= 1 then Array.map f cells
  else begin
    (* Per-index result slots: no two domains ever write the same slot,
       and the array is only read after every domain has joined, so no
       synchronization beyond the join is needed. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          match Atomic.get failed with
          | Some _ -> continue := false
          | None -> (
              match f cells.(i) with
              | v -> results.(i) <- Some v
              | exception e ->
                  (* Keep the first failure; losers of the race just stop. *)
                  ignore (Atomic.compare_and_set failed None (Some e));
                  continue := false)
      done
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (match Atomic.get failed with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end
