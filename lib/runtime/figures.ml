open Dcs_proto

type point = {
  nodes : int;
  msgs_per_op : float;
  msgs_per_lock_request : float;
  latency_factor : float;
  breakdown : (Msg_class.t * float) list;
}

type series = {
  driver : Experiment.driver;
  points : point list;
}

let default_nodes = [ 2; 4; 8; 16; 24; 32; 48; 64; 80; 96; 120 ]

let quick_nodes = [ 2; 4; 8; 16; 32 ]

(* Stable semantic identity of a driver, used (with the node count) to
   derive each sweep cell's seed. Independent of sweep composition: the
   hierarchical slice of a three-driver grid equals a one-driver sweep. *)
let driver_index = function
  | Experiment.Hierarchical -> 0
  | Experiment.Naimi_pure -> 1
  | Experiment.Naimi_same_work -> 2

let cell_seed ~seed ~driver ~nodes =
  Dcs_netkit.Parallel.cell_seed ~base:seed ~salt:((driver_index driver lsl 16) lor nodes)

let run_cell ?workload ~seed (driver, n) =
  let cfg = Experiment.default_config ~driver ~nodes:n in
  let cfg =
    {
      cfg with
      Experiment.seed = cell_seed ~seed ~driver ~nodes:n;
      workload = Option.value workload ~default:cfg.Experiment.workload;
    }
  in
  let r = Experiment.run cfg in
  {
    nodes = n;
    msgs_per_op = r.Experiment.msgs_per_op;
    msgs_per_lock_request = r.Experiment.msgs_per_lock_request;
    latency_factor = r.Experiment.latency_factor;
    breakdown =
      List.map
        (fun (c, k) -> (c, float_of_int k /. float_of_int (max 1 r.Experiment.ops)))
        r.Experiment.messages;
  }

(* One sweep cell re-run with full telemetry: exactly the configuration
   (and seed) the cell would have inside a figure sweep, so a dcs-trace
   capture is a drill-down into a published figure point, not a different
   experiment. *)
let traced_cell ?workload ?(seed = 42L) ~recorder ~driver ~nodes () =
  let cfg = Experiment.default_config ~driver ~nodes in
  let cfg =
    {
      cfg with
      Experiment.seed = cell_seed ~seed ~driver ~nodes;
      workload = Option.value workload ~default:cfg.Experiment.workload;
    }
  in
  Experiment.run ~recorder cfg

(* Every sweep goes through this one grid: cells fan out over domains
   (largest node counts first, so with dynamic distribution the long
   cells start early and short ones fill the tail) and results return in
   input order. Each cell's seed depends only on its semantic identity,
   so the grid output is bit-identical for any [jobs]. *)
let grid ?workload ~seed ?jobs cells =
  let m = Array.length cells in
  if m = 0 then [||]
  else begin
    let order = Array.init m Fun.id in
    Array.sort
      (fun a b ->
        let _, na = cells.(a) and _, nb = cells.(b) in
        if nb <> na then compare nb na else compare a b)
      order;
    let work = Array.map (fun i -> cells.(i)) order in
    let out = Dcs_netkit.Parallel.map ?jobs (run_cell ?workload ~seed) work in
    let results = Array.make m out.(0) in
    Array.iteri (fun k i -> results.(i) <- out.(k)) order;
    results
  end

let sweep ?workload ?(seed = 42L) ?jobs ~driver ~nodes () =
  let cells = Array.of_list (List.map (fun n -> (driver, n)) nodes) in
  { driver; points = Array.to_list (grid ?workload ~seed ?jobs cells) }

let drivers = Experiment.[ Hierarchical; Naimi_pure; Naimi_same_work ]

(* One flat grid across drivers × nodes: better load balance than
   parallelizing each driver's sweep separately. *)
let all_sweeps ?(seed = 42L) ?jobs ~nodes () =
  let per_driver = List.length nodes in
  let cells =
    Array.of_list (List.concat_map (fun d -> List.map (fun n -> (d, n)) nodes) drivers)
  in
  let points = grid ~seed ?jobs cells in
  List.mapi
    (fun di driver ->
      { driver; points = Array.to_list (Array.sub points (di * per_driver) per_driver) })
    drivers

let float_points f points = List.map (fun p -> (float_of_int p.nodes, f p)) points

let fit_line b label points ~f =
  if List.length points >= 3 then begin
    let xy = float_points f points in
    let log_fit = Dcs_stats.Fit.logarithmic xy in
    let lin_fit = Dcs_stats.Fit.linear xy in
    Buffer.add_string b
      (Format.asprintf "  %-16s log fit: %a | linear fit: %a | better: %s@." label
         Dcs_stats.Fit.pp log_fit Dcs_stats.Fit.pp lin_fit
         (if log_fit.Dcs_stats.Fit.r2 >= lin_fit.Dcs_stats.Fit.r2 then "logarithmic"
          else "linear"))
  end

let render_series_table ~column ~f series_list =
  let nodes = (List.hd series_list).points |> List.map (fun p -> p.nodes) in
  let header = "nodes" :: List.map (fun s -> Experiment.driver_to_string s.driver) series_list in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.map
             (fun s ->
               match List.find_opt (fun p -> p.nodes = n) s.points with
               | Some p -> Printf.sprintf "%.2f" (f p)
               | None -> "-")
             series_list)
      nodes
  in
  Printf.sprintf "%s\n%s" column (Dcs_stats.Table.render ~header rows)

let render_plot ~f series_list =
  Dcs_stats.Table.ascii_plot
    ~series:
      (List.map
         (fun s -> (Experiment.driver_to_string s.driver, float_points f s.points))
         series_list)

let render_fig5 series =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "Figure 5 — message overhead (messages per lock request) vs number of nodes\n\
     Paper: ours ~3 with a logarithmic asymptote; Naimi pure ~4; Naimi same-work higher and growing.\n\n";
  Buffer.add_string b (render_series_table ~column:"messages per lock request" ~f:(fun p -> p.msgs_per_lock_request) series);
  Buffer.add_char b '\n';
  Buffer.add_string b
    (render_series_table ~column:"messages per application operation" ~f:(fun p -> p.msgs_per_op) series);
  Buffer.add_char b '\n';
  Buffer.add_string b (render_plot ~f:(fun p -> p.msgs_per_lock_request) series);
  Buffer.add_string b "\nAsymptote check (messages per lock request):\n";
  List.iter
    (fun s ->
      fit_line b (Experiment.driver_to_string s.driver) s.points ~f:(fun p -> p.msgs_per_lock_request))
    series;
  Buffer.contents b

let fig5 ?(nodes = default_nodes) ?seed ?jobs () =
  let series = all_sweeps ?seed ?jobs ~nodes () in
  (series, render_fig5 series)

let render_fig6 series =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "Figure 6 — request latency as a factor of point-to-point latency vs number of nodes\n\
     Paper: ours linear, ~90 at 120 nodes; Naimi same-work superlinear, ~160; pure in between.\n\n";
  Buffer.add_string b (render_series_table ~column:"latency factor" ~f:(fun p -> p.latency_factor) series);
  Buffer.add_char b '\n';
  Buffer.add_string b (render_plot ~f:(fun p -> p.latency_factor) series);
  Buffer.add_string b "\nGrowth check (latency factor):\n";
  List.iter
    (fun s ->
      fit_line b (Experiment.driver_to_string s.driver) s.points ~f:(fun p -> p.latency_factor))
    series;
  Buffer.contents b

let fig6 ?(nodes = default_nodes) ?seed ?jobs () =
  let series = all_sweeps ?seed ?jobs ~nodes () in
  (series, render_fig6 series)

let render_fig7 s =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "Figure 7 — message overhead breakdown by type (hierarchical protocol, per operation)\n\
     Paper: requests rise then flatten; transfers decline to a plateau; grants and releases\n\
     rise and stabilize; freezes stay bounded.\n\n";
  let header = "nodes" :: List.map Msg_class.to_string Msg_class.all in
  let rows =
    List.map
      (fun p ->
        string_of_int p.nodes
        :: List.map
             (fun c ->
               Printf.sprintf "%.2f" (try List.assoc c p.breakdown with Not_found -> 0.0))
             Msg_class.all)
      s.points
  in
  Buffer.add_string b (Dcs_stats.Table.render ~header rows);
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Dcs_stats.Table.ascii_plot
       ~series:
         (List.map
            (fun c ->
              ( Msg_class.to_string c,
                List.map
                  (fun p ->
                    ( float_of_int p.nodes,
                      try List.assoc c p.breakdown with Not_found -> 0.0 ))
                  s.points ))
            Msg_class.all));
  Buffer.contents b

let fig7 ?(nodes = default_nodes) ?seed ?jobs () =
  let s = sweep ?seed ?jobs ~driver:Experiment.Hierarchical ~nodes () in
  (s, render_fig7 s)

let full_report ?(nodes = default_nodes) ?seed ?jobs () =
  (* One sweep per driver serves all three figures. *)
  let series = all_sweeps ?seed ?jobs ~nodes () in
  let ours = List.find (fun s -> s.driver = Experiment.Hierarchical) series in
  String.concat "
"
    [ render_fig5 series; render_fig6 series; render_fig7 ours ]

let tables () =
  String.concat "\n"
    [
      Dcs_modes.Compat.render_table `Compat;
      Dcs_modes.Compat.render_table `Child_grant;
      Dcs_modes.Compat.render_table `Queue_forward;
      Dcs_modes.Compat.render_table `Freeze;
    ]

let ablations ?(nodes = 32) ?(seed = 42L) () =
  let variants =
    [
      ("paper protocol", Dcs_hlock.Node.default_config);
      ("no caching", { Dcs_hlock.Node.default_config with Dcs_hlock.Node.caching = false });
      ("no freezing (nor caching)", { Dcs_hlock.Node.default_config with Dcs_hlock.Node.freezing = false });
      ("eager releases", { Dcs_hlock.Node.default_config with Dcs_hlock.Node.eager_release = true });
      ("full path reversal", { Dcs_hlock.Node.default_config with Dcs_hlock.Node.reverse_all = true });
    ]
  in
  let rows =
    List.map
      (fun (label, protocol) ->
        let cfg = Experiment.default_config ~driver:Experiment.Hierarchical ~nodes in
        let cfg = { cfg with Experiment.protocol; seed } in
        let r = Experiment.run cfg in
        [
          label;
          Printf.sprintf "%.2f" r.Experiment.msgs_per_op;
          Printf.sprintf "%.2f" r.Experiment.msgs_per_lock_request;
          Printf.sprintf "%.1f" r.Experiment.latency_factor;
          Printf.sprintf "%.1f" r.Experiment.p95_latency_ms;
        ])
      variants
  in
  Printf.sprintf "Ablations (hierarchical driver, %d nodes, airline workload)\n%s" nodes
    (Dcs_stats.Table.render
       ~header:[ "variant"; "msg/op"; "msg/lockreq"; "latency factor"; "p95 ms" ]
       rows)

let topology_study ?(nodes = 32) ?(seed = 42L) () =
  let variants =
    [
      ("uniform LAN", Dcs_sim.Topology.uniform);
      ("2 racks, remote x4", Dcs_sim.Topology.racks ~rack_size:(max 1 (nodes / 2)) ~remote_factor:4.0);
      ("4 racks, remote x4", Dcs_sim.Topology.racks ~rack_size:(max 1 (nodes / 4)) ~remote_factor:4.0);
      ("star around node 0", Dcs_sim.Topology.star ~hub:0 ~spoke_factor:4.0);
    ]
  in
  let rows =
    List.map
      (fun (label, topology) ->
        let cfg = Experiment.default_config ~driver:Experiment.Hierarchical ~nodes in
        let cfg = { cfg with Experiment.topology; seed } in
        let r = Experiment.run cfg in
        [
          label;
          Printf.sprintf "%.2f" r.Experiment.msgs_per_op;
          Printf.sprintf "%.1f" r.Experiment.mean_latency_ms;
          Printf.sprintf "%.1f" r.Experiment.p95_latency_ms;
        ])
      variants
  in
  Printf.sprintf
    "Topology study (hierarchical driver, %d nodes; latency factors scale the base 150 ms)
%s"
    nodes
    (Dcs_stats.Table.render ~header:[ "topology"; "msg/op"; "mean ms"; "p95 ms" ] rows)

let entries_study ?(nodes = 48) ?(seed = 42L) () =
  (* The paper never states its table size; this sweep shows how it moves
     the Naimi same-work comparison while leaving the hierarchical
     protocol's costs nearly flat. *)
  let rows =
    List.concat_map
      (fun entries ->
        List.map
          (fun driver ->
            let cfg = Experiment.default_config ~driver ~nodes in
            let workload = { cfg.Experiment.workload with Dcs_workload.Airline.entries } in
            let r = Experiment.run { cfg with Experiment.workload; seed } in
            [
              string_of_int entries;
              Experiment.driver_to_string driver;
              Printf.sprintf "%.2f" r.Experiment.msgs_per_op;
              Printf.sprintf "%.1f" r.Experiment.latency_factor;
            ])
          Experiment.[ Hierarchical; Naimi_same_work ])
      [ 3; 5; 10; 20 ]
  in
  Printf.sprintf
    "Table-size sensitivity (%d nodes): the paper omits its table size; the same-work
     baseline pays for it linearly while the hierarchical protocol does not.
%s"
    nodes
    (Dcs_stats.Table.render ~header:[ "entries"; "driver"; "msg/op"; "latency factor" ] rows)

(* Mean and standard deviation over seeds for the headline metrics. *)
let seed_variance ?(nodes = [ 16; 48; 96 ]) () =
  let seeds = [ 1L; 7L; 42L; 99L; 1234L ] in
  let rows =
    List.concat_map
      (fun driver ->
        List.map
          (fun n ->
            let msgs = Dcs_stats.Summary.create () and lat = Dcs_stats.Summary.create () in
            List.iter
              (fun seed ->
                let cfg = Experiment.default_config ~driver ~nodes:n in
                let r = Experiment.run { cfg with Experiment.seed } in
                Dcs_stats.Summary.add msgs r.Experiment.msgs_per_lock_request;
                Dcs_stats.Summary.add lat r.Experiment.latency_factor)
              seeds;
            [
              Experiment.driver_to_string driver;
              string_of_int n;
              Printf.sprintf "%.2f ± %.2f" (Dcs_stats.Summary.mean msgs) (Dcs_stats.Summary.stddev msgs);
              Printf.sprintf "%.1f ± %.1f" (Dcs_stats.Summary.mean lat) (Dcs_stats.Summary.stddev lat);
            ])
          nodes)
      drivers
  in
  Printf.sprintf "Seed variance over %d seeds (mean ± sd)
%s" (List.length seeds)
    (Dcs_stats.Table.render
       ~header:[ "driver"; "nodes"; "msg/lockreq"; "latency factor" ]
       rows)

let to_csv series_list =
  let rows =
    List.concat_map
      (fun s ->
        List.map
          (fun p ->
            [
              Experiment.driver_to_string s.driver;
              string_of_int p.nodes;
              Printf.sprintf "%.4f" p.msgs_per_op;
              Printf.sprintf "%.4f" p.msgs_per_lock_request;
              Printf.sprintf "%.4f" p.latency_factor;
            ])
          s.points)
      series_list
  in
  Dcs_stats.Table.csv
    ~header:[ "driver"; "nodes"; "msgs_per_op"; "msgs_per_lockreq"; "latency_factor" ]
    rows
