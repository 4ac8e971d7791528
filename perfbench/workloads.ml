(* The four closed-loop workloads.  One in-process client issues each op
   only after the previous one returned.  Every workload has

   - a set-up, repeated ([setup_s] is the median of the host-normalized
     repetitions; the first one counts from process start),
   - a timed phase of whole passes: a pass holds every op class in a
     seeded order, and passes repeat until the pass boundary nearest to
     [--seconds], once enough ops ran to put [min_samples_beyond]
     samples past the tail percentile; op times are host-normalized
     (see Measure),
   - output checks run after the timed phase, feeding [ok_share],
   - a traced round for [--trace 1]: one untraced pass, then the same
     pass replayed as spans around the public calls each op makes.

   Op-class weights are chosen so that neither the median nor the tail
   percentile falls on the boundary between two classes (see each
   workload's [slots]). *)

open Measure

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type sample = { cls : string; ms : float }
type 'a op = { cls : string; run : unit -> 'a }

type report = {
  metrics : metric list;
  attempted : int;
  failed : int;
  info : (string * string) list;  (** run record fields, JSON-encoded *)
}

let min_samples_beyond = 10

(* Set up at least 3 times and for at least 1 s in total, so that a
   cheap set-up still gets a steady median; the last one is kept.  Each
   set-up is divided by the host factor of 5 probes run after it.
   Returns the kept set-up, the median normalized time and the median
   raw time. *)
let repeated_setup ?probe_domains f =
  let raw = ref [] and normalized = ref [] and last = ref None in
  while List.length !raw < 3 || sum !raw < 1.0 do
    let t0 = if !raw = [] then process_start else now () in
    last := Some (f ());
    let s = now () -. t0 in
    raw := s :: !raw;
    normalized := (s /. host_factor ?domains:probe_domains 5) :: !normalized
  done;
  (Option.get !last, median !normalized, median !raw)

let run_op op =
  let a = now () in
  let out = op.run () in
  let b = now () in
  ({ cls = op.cls; ms = (b -. a) *. 1000. }, out)

type phase = {
  samples : sample list;  (** normalized op latencies *)
  raw_samples : sample list;
  busy_s : float;  (** normalized sum of op latencies *)
  wall_s : float;
  pass_s : float list;
  factors : float list;  (** host factor of each pass *)
}

(* Whole cycles of [cycle] passes, so every run does the same mix of
   work, until the tail percentile has [min_samples_beyond] samples past
   it and the cycle boundary nearest to [seconds] is reached.  After
   every op, outside its timing, [keep] shrinks its output to what the
   checks need and the probe runs (on [probe_domains] domains); the
   pass's host factor is its median probe time over the reference. *)
let timed_phase ?probe_domains ?(cycle = 1) ~seconds ~tail_p ?(after_pass = ignore) ~pass ~keep () =
  let t0 = now () in
  let samples = ref [] and raw = ref [] and kept = ref [] and pass_s = ref [] in
  let factors = ref [] and busy = ref 0. and n = ref 0 in
  let at_cycle_end () = List.length !pass_s mod cycle = 0 in
  let cycle_t0 = ref t0 and last_cycle = ref 0. in
  while
    !n - rank ~p:tail_p !n < min_samples_beyond
    || (not (at_cycle_end ()))
    || now () -. t0 +. (!last_cycle /. 2.) < seconds
  do
    let p0 = now () in
    let ops, probes =
      List.split
        (List.map
           (fun op ->
             let s, out = run_op op in
             kept := keep out :: !kept;
             incr n;
             (s, probe_ms ?domains:probe_domains ()))
           (pass (List.length !pass_s)))
    in
    after_pass (List.length !pass_s);
    pass_s := (now () -. p0) :: !pass_s;
    if at_cycle_end () then begin
      last_cycle := now () -. !cycle_t0;
      cycle_t0 := now ()
    end;
    let f = median probes /. probe_reference_ms in
    factors := f :: !factors;
    List.iter
      (fun (s : sample) ->
        raw := s :: !raw;
        samples := { s with ms = s.ms /. f } :: !samples;
        busy := !busy +. (s.ms /. f /. 1000.))
      ops
  done;
  ( {
      samples = List.rev !samples;
      raw_samples = List.rev !raw;
      busy_s = !busy;
      wall_s = now () -. t0;
      pass_s = List.rev !pass_s;
      factors = List.rev !factors;
    },
    List.rev !kept )

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let json_list xs = "[" ^ String.concat ", " (List.map json_float xs) ^ "]"

(* Latency figures of a sample list: median, tail, and the geometric
   mean of the per-class medians. *)
let latency ~tail_p samples =
  let lat = List.map (fun (s : sample) -> s.ms) samples in
  let class_medians =
    List.map (fun (c, l) -> (c, median l)) (group (List.map (fun (s : sample) -> (s.cls, s.ms)) samples))
  in
  (median lat, percentile tail_p lat, geomean (List.map snd class_medians), class_medians)

let end_to_end ~setup:(setup_s, raw_setup_s) ~phase ~tail_p ~oks ~area ~quality ?(extra = [])
    () =
  let n = List.length phase.samples in
  let attempted = List.length oks in
  let failed = List.length (List.filter not oks) in
  let p50, tail, geo, classes = latency ~tail_p phase.samples in
  let raw_p50, raw_tail, raw_geo, _ = latency ~tail_p phase.raw_samples in
  {
    metrics =
      [
        metric "setup_s" "s" setup_s;
        metric "ops_per_s" "op/s" (float_of_int n /. phase.busy_s);
        metric "op_p50_ms" "ms" p50;
        metric "op_tail_ms" "ms" tail;
        metric "op_geomean_ms" "ms" geo;
        metric "ok_share" "fraction"
          (float_of_int (attempted - failed) /. float_of_int attempted);
        metric "peak_rss_mb" "MB" (peak_rss_mb ());
        metric "area_tiles" "tiles" area;
        metric "quality_ratio" "ratio" quality;
      ];
    attempted;
    failed;
    info =
      List.map
           (fun (k, v) -> (k, json_float v))
           ([
              ("passes", float_of_int (List.length phase.pass_s));
              ("ops", float_of_int n);
              ("wall_s", phase.wall_s);
              ("tail_percentile", tail_p *. 100.);
              ("tail_samples_beyond", float_of_int (n - rank ~p:tail_p n));
              ("op_classes", float_of_int (List.length classes));
              ("raw_setup_s", raw_setup_s);
              ("raw_ops_per_s", float_of_int n /. sum (List.map (fun (s : sample) -> s.ms /. 1000.) phase.raw_samples));
              ("raw_op_p50_ms", raw_p50);
              ("raw_op_tail_ms", raw_tail);
              ("raw_op_geomean_ms", raw_geo);
            ]
           @ extra)
      @ [
          ( "class_p50_ms",
            "{"
            ^ String.concat ", " (List.map (fun (c, v) -> Printf.sprintf "%S: %s" c (json_float v)) classes)
            ^ "}" );
          ("pass_s", json_list phase.pass_s);
          ("host_factor", json_list phase.factors);
        ];
  }

(* A workload's traced side: one round = an untraced pass and its traced
   replay.  [overhead] compares their summed op times. *)
type traced = {
  round : int -> unit;
  layer_metrics : unit -> metric list;
}

type overhead = { mutable untraced_ms : float; mutable traced_ms : float }

let new_overhead () = { untraced_ms = 0.; traced_ms = 0. }

let overhead_metric name o =
  metric
    (Printf.sprintf "trace.%s.overhead_share" name)
    "fraction"
    (1. -. (o.untraced_ms /. o.traced_ms))

let next_op = ref 0

let fresh_op () =
  incr next_op;
  !next_op

let median_ms name = median (List.map ms (spans_named name))
let median_words name = median (List.map (fun s -> s.words) (spans_named name))

let failures = ref 0
let replayed = ref 0

let expect ok =
  incr replayed;
  if not ok then incr failures

let int_f = float_of_int

(* ------------------------------------------------------------------ *)
(* table1_flow                                                          *)
(* ------------------------------------------------------------------ *)

module Table1 = struct
  (* The Table-1 circuits that finish in <= 2 s.  cm82a_5 (~10 s) and
     majority_5_r1 (~53 s) are excluded: one sample of either would set
     a whole run's wall time. *)
  let circuits =
    [ "xor2"; "xnor2"; "par_gen"; "mux21"; "par_check"; "xor5_r1";
      "xor5_majority"; "t"; "t_5"; "c17"; "majority"; "newtag" ]

  (* xor2 and majority run twice per pass: 14 ops, so the median is the
     middle op of majority (ranked 6th of the 12 circuits by latency), not
     a boundary between two circuits, and that class gets two samples a
     pass; p90 sits inside newtag. *)
  let slots = Array.of_list ("xor2" :: "majority" :: circuits)

  let tail_p = 0.90
  let network name = (Logic.Benchmarks.find name).Logic.Benchmarks.build ()

  type kept = {
    circuit : string;
    spec : Logic.Network.t;
    outcome : (summary, string) result;
  }

  and summary = {
    layout : Layout.Gate_layout.t;
    area : int;
    sidbs : int;
    drc : int;
    equivalent : bool;
  }

  let summarize (r : Core.Flow.result) =
    {
      layout = r.Core.Flow.gate_layout;
      area = (Layout.Gate_layout.stats r.Core.Flow.gate_layout).Layout.Gate_layout.area_tiles;
      sidbs =
        (match r.Core.Flow.sidb with
        | Some s -> s.Bestagon.Library.sidb_count
        | None -> -1);
      drc = List.length r.Core.Flow.drc_violations;
      equivalent = r.Core.Flow.equivalence = Some Verify.Equivalence.Equivalent;
    }

  let keep (circuit, spec, r) =
    {
      circuit;
      spec;
      outcome =
        (match r with
        | Ok r -> Ok (summarize r)
        | Error f -> Error (Core.Flow.error_message f));
    }

  (* Equivalence re-checked by exhaustive simulation of the extracted
     layout, independently of the SAT miter the flow used. *)
  let brute_force spec layout =
    match Verify.Extract.network layout with
    | Error _ -> false
    | Ok net ->
        Verify.Equivalence.check_brute_force ~jobs:1 spec net
        = Verify.Equivalence.Equivalent

  let check expected k =
    match k.outcome with
    | Error _ -> false
    | Ok s ->
        let e = Expected.find k.circuit expected k.circuit in
        s.drc = 0 && s.equivalent && s.area = e.Expected.area && s.sidbs = e.Expected.sidbs
        && brute_force k.spec s.layout

  let prepare () =
    let nets = List.map (fun c -> (c, network c)) circuits in
    (* warm-up: one flow per circuit fills the process-wide caches *)
    List.iter (fun (_, n) -> ignore (Core.Flow.run n)) nets;
    nets

  let pass_ops ~rand nets =
    Array.to_list
      (Array.map
         (fun c ->
           let spec = List.assoc c nets in
           { cls = c; run = (fun () -> (c, spec, Core.Flow.run spec)) })
         (shuffle rand slots))

  let run ~seed ~seconds =
    let nets, setup_s, raw_setup_s = repeated_setup prepare in
    let rand = stream ~seed ~salt:1 in
    let phase, kept =
      timed_phase ~seconds ~tail_p ~keep
        ~pass:(fun _ -> pass_ops ~rand nets)
        ()
    in
    let expected = Expected.table1 () in
    let oks = List.map (check expected) kept in
    let found =
      List.filter_map
        (fun k -> match k.outcome with Ok s -> Some (k.circuit, s) | Error _ -> None)
        kept
    in
    let distinct = List.map (fun (c, l) -> (c, List.hd l)) (group found) in
    let quality =
      sum (List.map (fun (c, _) -> int_f (Expected.find c expected c).Expected.area) found)
      /. sum (List.map (fun (_, s) -> int_f s.area) found)
    in
    (* Kept visible in every run: the flow's SiDB counts that no longer
       match the ones EXPERIMENTS.md Table 1 prints. *)
    let differing =
      List.filter
        (fun (c, s) -> s.sidbs <> (Expected.find c expected c).Expected.table1_sidbs)
        distinct
    in
    end_to_end ~setup:(setup_s, raw_setup_s) ~phase ~tail_p ~oks
      ~area:(sum (List.map (fun (_, s) -> int_f s.area) distinct))
      ~quality
      ~extra:[ ("sidbs_differing_from_experiments_md", int_f (List.length differing)) ]
      ()

  (* The replay: the public calls Core.Flow.run makes with default
     options and no memo, in its order, each as a span. *)
  let npn_misses () =
    let _, _, misses = Logic.Npn.cache_stats () in
    misses

  let replay ~op spec =
    span ~op "core.flow" (fun () ->
        let before = npn_misses () in
        let optimized =
          span ~op "logic.rewrite"
            ~counters:(fun _ -> [ ("npn_misses", int_f (npn_misses () - before)) ])
            (fun () -> Logic.Rewrite.rewrite_to_fixpoint spec)
        in
        let mapped, _ =
          span ~op "logic.map" (fun () ->
              Logic.Tech_map.map ~fuse_half_adders:true optimized)
        in
        let netlist =
          span ~op "physdesign.netlist" (fun () ->
              Physdesign.Netlist.of_mapped mapped)
        in
        let pd =
          span ~op "physdesign.exact"
            ~counters:(function
              | Ok (r : Physdesign.Exact.result) ->
                  [
                    ("satisfiable", 1.);
                    ("attempts", int_f r.Physdesign.Exact.attempts);
                    ("conflicts", int_f r.Physdesign.Exact.stats.Sat.Solver.conflicts);
                    ( "propagations",
                      int_f r.Physdesign.Exact.stats.Sat.Solver.propagations );
                  ]
              | Error _ -> [])
            (fun () ->
              Physdesign.Exact.place_and_route
                ~config:Physdesign.Exact.default_config
                ~budget:Core.Budget.unlimited netlist)
        in
        match pd with
        | Error _ -> None
        | Ok r ->
            let layout = r.Physdesign.Exact.layout in
            let drc =
              span ~op "layout.drc" (fun () -> Layout.Design_rules.check layout)
            in
            let verdict =
              span ~op "verify.equivalence" (fun () ->
                  Verify.Equivalence.check_layout
                    ~budget:(Core.Budget.verification_grace Core.Budget.unlimited)
                    spec layout)
            in
            let supertiled =
              span ~op "layout.supertile" (fun () -> Layout.Supertile.expand layout)
            in
            let sidb =
              span ~op "bestagon.library" (fun () ->
                  Bestagon.Library.apply supertiled)
            in
            Some
              ( (Layout.Gate_layout.stats layout).Layout.Gate_layout.area_tiles,
                (match sidb with Ok l -> l.Bestagon.Library.sidb_count | Error _ -> -1),
                List.length drc,
                verdict = Ok Verify.Equivalence.Equivalent ))

  let traced ~seed =
    let npn_before = npn_misses () in
    let nets = prepare () in
    let cold_npn_misses = npn_misses () - npn_before in
    let rand = stream ~seed ~salt:11 in
    let o = new_overhead () in
    let flow_ms = Hashtbl.create 16 in
    let roots = ref [] in
    let first_pass_ops = ref [] in
    let round r =
      let ops = pass_ops ~rand nets in
      let results =
        List.map
          (fun op ->
            let s, (c, _, res) = run_op op in
            o.untraced_ms <- o.untraced_ms +. s.ms;
            Hashtbl.replace flow_ms c
              (s.ms :: Option.value (Hashtbl.find_opt flow_ms c) ~default:[]);
            (c, Result.map summarize res))
          ops
      in
      List.iter
        (fun (c, res) ->
          let op = fresh_op () in
          if r = 0 then first_pass_ops := op :: !first_pass_ops;
          let t0 = now () in
          let out = replay ~op (List.assoc c nets) in
          o.traced_ms <- o.traced_ms +. ((now () -. t0) *. 1000.);
          roots := (op, c) :: !roots;
          expect
            (match (out, res) with
            | Some (area, sidbs, drc, eq), Ok s ->
                area = s.area && sidbs = s.sidbs && drc = 0 && eq
            | _ -> false))
        results
    in
    let layer_metrics () =
      let covered = child_ms () in
      let root_spans = spans_named "core.flow" in
      let flow_median c = median (Hashtbl.find flow_ms c) in
      let glue =
        List.map
          (fun s -> flow_median (List.assoc s.op !roots) -. covered s.id)
          root_spans
      in
      let coverage =
        sum (List.map (fun s -> covered s.id) root_spans)
        /. sum (List.map (fun s -> flow_median (List.assoc s.op !roots)) root_spans)
      in
      let first name =
        List.filter (fun s -> List.mem s.op !first_pass_ops) (spans_named name)
      in
      let total name key = sum (List.map (counter key) (first name)) in
      [
        metric "logic.rewrite_ms" "ms" (median_ms "logic.rewrite");
        metric "logic.rewrite_words" "words" (median_words "logic.rewrite");
        metric "logic.npn_cache_misses" "count" (int_f cold_npn_misses);
        metric "logic.map_ms" "ms" (median_ms "logic.map");
        metric "physdesign.exact_ms" "ms" (median_ms "physdesign.exact");
        metric "physdesign.exact_words" "words" (median_words "physdesign.exact");
        metric "physdesign.attempts" "count" (total "physdesign.exact" "attempts");
        metric "physdesign.sat_share" "fraction"
          (total "physdesign.exact" "satisfiable" /. total "physdesign.exact" "attempts");
        metric "sat.conflicts" "count" (total "physdesign.exact" "conflicts");
        metric "sat.propagations" "count" (total "physdesign.exact" "propagations");
        metric "verify.equivalence_ms" "ms" (median_ms "verify.equivalence");
        metric "layout.supertile_ms" "ms" (median_ms "layout.supertile");
        metric "bestagon.library_ms" "ms" (median_ms "bestagon.library");
        metric "core.flow_glue_ms" "ms" (median glue);
        metric "core.flow_coverage_share" "fraction" coverage;
        overhead_metric "table1_flow" o;
      ]
    in
    { round; layer_metrics }
end

(* ------------------------------------------------------------------ *)
(* layout_sim                                                           *)
(* ------------------------------------------------------------------ *)

module Layout_sim = struct
  (* 54 to 362 DBs.  t, t_5 and newtag (~600 DBs, ~6 s per op) are
     excluded for the same single-op reason as in table1_flow. *)
  let circuits = [ "xor2"; "par_gen"; "mux21"; "par_check"; "xor5_r1"; "majority"; "c17" ]

  (* A cycle of 3 passes runs 21 (layout, input) kinds, each as often,
     and an input can move a layout's time by 2x: the median is the
     middle of the 11th-ranked kind and p83.3 the middle of the 18th, not
     a boundary between two. *)
  let tail_p = 5. /. 6.

  type design = {
    circuit : string;
    result : Core.Flow.result;
    pis : string array;
  }

  let prepare () =
    List.map
      (fun circuit ->
        let spec = Table1.network circuit in
        match Core.Flow.run spec with
        | Ok result ->
            {
              circuit;
              result;
              pis =
                Array.init (Logic.Network.num_pis spec) (Logic.Network.pi_name spec);
            }
        | Error f -> failwith (circuit ^ ": " ^ Core.Flow.error_message f))
      circuits

  let inputs d bits =
    Array.to_list (Array.mapi (fun i name -> (name, bits.[i] = '1')) d.pis)

  (* Truth-table row [r] of [n] inputs as bits in PI order. *)
  let bits_of_row n r = String.init n (fun i -> if (r lsr i) land 1 = 1 then '1' else '0')

  let all_bits n = List.init (1 lsl n) (bits_of_row n)

  (* Each layout cycles through a fixed set of 3 input assignments
     (evenly spaced rows of its truth table) in a seeded order, one per
     pass, and a run ends on a whole cycle: quicksim's time depends on the
     inputs (c17: 0.9-1.8 s), so random draws or a part cycle would make
     the work of a run depend on the seed. *)
  let inputs_per_layout = 3

  let input_set d =
    let n = Array.length d.pis in
    Array.init inputs_per_layout (fun i -> bits_of_row n (i * (1 lsl n) / inputs_per_layout))

  let planner ~rand designs =
    let schedules = List.map (fun d -> (d.circuit, shuffle rand (input_set d))) designs in
    fun pass ->
      Array.to_list
        (Array.map
           (fun d ->
             let s = List.assoc d.circuit schedules in
             (d, s.(pass mod Array.length s)))
           (shuffle rand (Array.of_list designs)))

  let op_of (d, bits) =
    {
      cls = d.circuit;
      run = (fun () -> (d, bits, Core.Flow.simulate_layout ~inputs:(inputs d bits) d.result));
    }

  type kept = { k_circuit : string; k_bits : string; k_sim : (Core.Flow.layout_sim, string) result }

  let keep (d, bits, r) = { k_circuit = d.circuit; k_bits = bits; k_sim = r }

  let tolerance_ev = 1e-6

  let run ~seed ~seconds =
    let designs, setup_s, raw_setup_s = repeated_setup prepare in
    let plan = planner ~rand:(stream ~seed ~salt:2) designs in
    let phase, kept =
      timed_phase ~cycle:inputs_per_layout ~seconds ~tail_p ~keep
        ~pass:(fun p -> List.map op_of (plan p))
        ()
    in
    let reference = Expected.energies () in
    let ref_of k = Expected.find (k.k_circuit ^ "/" ^ k.k_bits) reference (k.k_circuit, k.k_bits) in
    let oks =
      List.map
        (fun k ->
          match k.k_sim with
          | Ok s -> s.Core.Flow.sim_valid && s.Core.Flow.sim_energy <= ref_of k +. tolerance_ev
          | Error _ -> false)
        kept
    in
    let found, refs =
      List.split
        (List.filter_map
           (fun k -> match k.k_sim with Ok s -> Some (s.Core.Flow.sim_energy, ref_of k) | Error _ -> None)
           kept)
    in
    let area =
      sum
        (List.map
           (fun d -> int_f (Layout.Gate_layout.stats d.result.Core.Flow.gate_layout).Layout.Gate_layout.area_tiles)
           designs)
    in
    (* Energies are negative: a worse (higher) ground state found lowers
       the ratio below 1. *)
    end_to_end ~setup:(setup_s, raw_setup_s) ~phase ~tail_p ~oks ~area
      ~quality:(sum found /. sum refs) ()

  (* The replay: the public calls Core.Flow.simulate_layout makes on the
     quicksim branch (every layout here is above the 40-site exact
     limit). *)
  let replay ~op d bits =
    span ~op "core.simulate_layout" (fun () ->
        match
          span ~op "bestagon.assembly" (fun () ->
              Bestagon.Assembly.assemble ~inputs:(inputs d bits) d.result.Core.Flow.supertiled)
        with
        | Error e -> Error e
        | Ok asm when asm.Bestagon.Assembly.site_count <= Core.Flow.exact_site_limit ->
            Error "system small enough for the exact engine"
        | Ok asm ->
            let sys = asm.Bestagon.Assembly.system in
            let sites = int_f asm.Bestagon.Assembly.site_count in
            let spectrum =
              span ~op "sidb.quicksim"
                ~counters:(fun sp -> [ ("states", int_f (List.length sp)); ("sites", sites) ])
                (fun () ->
                  Sidb.Ground_state.quicksim_spectrum ~config:Sidb.Ground_state.default_quicksim sys)
            in
            let e0 = match spectrum with (_, e) :: _ -> e | [] -> infinity in
            let valid =
              span ~op "sidb.validity" (fun () ->
                  let states =
                    List.filter_map
                      (fun (occ, e) ->
                        if Float.abs (e -. e0) <= 1e-9 && Sidb.Charge_system.physically_valid sys occ
                        then Some occ
                        else None)
                      spectrum
                  in
                  states <> [] && List.for_all (Sidb.Charge_system.physically_valid sys) states)
            in
            let ct =
              span ~op "sidb.temperature" (fun () ->
                  Sidb.Temperature.critical_temperature_of_spectrum spectrum)
            in
            Ok (e0, valid, List.length spectrum, ct))

  let traced ~seed =
    let designs = prepare () in
    let planned = planner ~rand:(stream ~seed ~salt:12) designs in
    let o = new_overhead () in
    let round r =
      let plan = planned r in
      let untraced =
        List.map
          (fun p ->
            let s, (_, _, r) = run_op (op_of p) in
            o.untraced_ms <- o.untraced_ms +. s.ms;
            r)
          plan
      in
      List.iter2
        (fun (d, bits) r ->
          let t0 = now () in
          let out = replay ~op:(fresh_op ()) d bits in
          o.traced_ms <- o.traced_ms +. ((now () -. t0) *. 1000.);
          expect
            (match (out, r) with
            | Ok (e0, valid, states, ct), Ok s ->
                e0 = s.Core.Flow.sim_energy && valid = s.Core.Flow.sim_valid && valid
                && states = s.Core.Flow.sim_spectrum_states
                && ct = s.Core.Flow.sim_critical_temperature_k
            | _ -> false))
        plan untraced
    in
    let layer_metrics () =
      let qs = spans_named "sidb.quicksim" in
      [
        metric "bestagon.assembly_ms" "ms" (median_ms "bestagon.assembly");
        metric "sidb.quicksim_ms" "ms" (median_ms "sidb.quicksim");
        metric "sidb.quicksim_words" "words" (median_words "sidb.quicksim");
        metric "sidb.quicksim_us_per_site" "us"
          (median (List.map (fun s -> ms s *. 1000. /. counter "sites" s) qs));
        metric "sidb.spectrum_states" "count" (median (List.map (counter "states") qs));
        metric "sidb.validity_ms" "ms" (median_ms "sidb.validity");
        metric "sidb.temperature_ms" "ms" (median_ms "sidb.temperature");
        overhead_metric "layout_sim" o;
      ]
    in
    { round; layer_metrics }
end

(* ------------------------------------------------------------------ *)
(* gate_domains                                                         *)
(* ------------------------------------------------------------------ *)

module Gate_domains = struct
  module OD = Sidb.Operational_domain
  module D = Hexlib.Direction
  module M = Logic.Mapped

  let steps = 32
  let x_axis = { Core.Flow.default_domain_x_axis with OD.steps }
  let y_axis = { Core.Flow.default_domain_y_axis with OD.steps }
  let jobs = Domain.recommended_domain_count ()

  (* Grid, and flood fill with the CLI's default probe count (an eighth
     of the grid). *)
  let algorithms =
    [
      ("grid", { OD.default_config with OD.algorithm = OD.Grid });
      ( "flood-fill",
        { OD.default_config with OD.algorithm = OD.Flood_fill; samples = steps * steps / 8 } );
    ]

  let tiles =
    let gate2 fn =
      Layout.Tile.Gate { fn; ins = [ D.North_west; D.North_east ]; outs = [ D.South_east ] }
    in
    [
      ("wire", Layout.Tile.Wire { segments = [ (D.North_west, D.South_east) ] });
      ("inverter", Layout.Tile.Gate { fn = M.Inv; ins = [ D.North_west ]; outs = [ D.South_east ] });
      ("or2", gate2 M.Or2);
      ("and2", gate2 M.And2);
      ("nor2", gate2 M.Nor2);
      ("nand2", gate2 M.Nand2);
      ("xor2", gate2 M.Xor2);
      ("xnor2", gate2 M.Xnor2);
    ]

  type gate = { gate : string; structure : Sidb.Bdl.structure; spec : bool array -> bool array }

  (* 16 classes plus a second wire flood fill: 17 ops per pass, so the
     median is the middle op of the 9th-ranked class. *)
  let slots gates =
    let all =
      List.concat_map (fun g -> List.map (fun (alg, config) -> (g, alg, config)) algorithms) gates
    in
    Array.of_list (List.hd (List.tl all) :: all)

  let tail_p = 0.90

  let prepare () =
    let gates =
      List.map
        (fun (gate, tile) ->
          match (Bestagon.Library.validation_structure tile, Bestagon.Library.tile_spec tile) with
          | Some structure, Some spec -> { gate; structure; spec }
          | _ -> failwith ("no library entry for " ^ gate))
        tiles
    in
    (* warm-up on an 8x8 grid: starts the worker domains and runs every
       gate and algorithm once *)
    List.iter
      (fun g ->
        List.iter
          (fun (_, config) ->
            ignore
              (OD.sweep ~jobs ~config ~x_axis:{ x_axis with OD.steps = 8 }
                 ~y_axis:{ y_axis with OD.steps = 8 } g.structure ~spec:g.spec))
          algorithms)
      gates;
    gates

  let sweep (g, _, config) = OD.sweep ~jobs ~config ~x_axis ~y_axis g.structure ~spec:g.spec

  (* Per point: -1 not evaluated, else 0/1 for non-operational/operational. *)
  let classes (d : OD.t) =
    Array.of_list
      (List.map
         (fun (s : OD.sample) -> if not s.OD.evaluated then -1 else if s.OD.operational then 1 else 0)
         d.OD.samples)

  let operational_points c = Array.fold_left (fun n v -> if v = 1 then n + 1 else n) 0 c

  type kept = { k_gate : string; k_alg : string; k_classes : int array }

  let pass_ops ~rand gates =
    Array.to_list
      (Array.map
         (fun ((g, alg, _) as s) -> { cls = g.gate ^ "/" ^ alg; run = (fun () -> (g.gate, alg, sweep s)) })
         (shuffle rand (slots gates)))

  let keep (gate, alg, d) = { k_gate = gate; k_alg = alg; k_classes = classes d }

  (* Flood fill under-counts regions no probe hits (thin gates read 0 at
     32x32); only the points it evaluated must match the grid. *)
  let agrees ~grid c =
    Array.length c = Array.length grid
    && Array.for_all2 (fun v g -> v = -1 || v = g) c grid

  let run ~seed ~seconds =
    let gates, setup_s, raw_setup_s = repeated_setup ~probe_domains:jobs prepare in
    let rand = stream ~seed ~salt:3 in
    let phase, kept =
      timed_phase ~probe_domains:jobs ~seconds ~tail_p ~keep
        ~pass:(fun _ -> pass_ops ~rand gates)
        ()
    in
    let expected = Expected.gates () in
    let grid_of gate =
      (List.find (fun k -> k.k_gate = gate && k.k_alg = "grid") kept).k_classes
    in
    let oks =
      List.map
        (fun k ->
          let grid = grid_of k.k_gate in
          if k.k_alg = "grid" then
            Array.for_all (fun v -> v >= 0) k.k_classes
            && operational_points k.k_classes = Expected.find k.k_gate expected k.k_gate
            && k.k_classes = grid
          else agrees ~grid k.k_classes)
        kept
    in
    let grids = List.filter (fun k -> k.k_alg = "grid") kept in
    let quality =
      sum (List.map (fun k -> int_f (operational_points k.k_classes)) grids)
      /. sum (List.map (fun k -> int_f (Expected.find k.k_gate expected k.k_gate)) grids)
    in
    (* each library gate is one tile *)
    end_to_end ~setup:(setup_s, raw_setup_s) ~phase ~tail_p ~oks ~area:(int_f (List.length gates)) ~quality ()

  let model_at (s : OD.sample) =
    OD.set_parameter
      (OD.set_parameter Sidb.Model.default x_axis.OD.parameter s.OD.x_value)
      y_axis.OD.parameter s.OD.y_value

  (* Time of the charge-system builds and Ground_state.pruned solves
     operational_at makes at one point: the union system built once,
     each truth-table row sliced out of it and solved, rows in natural
     order until the first failing one. *)
  let ground_state_ms g model =
    let index = Hashtbl.create 64 and rev_sites = ref [] and count = ref 0 in
    let add site =
      if not (Hashtbl.mem index site) then begin
        Hashtbl.add index site !count;
        rev_sites := site :: !rev_sites;
        incr count
      end
    in
    List.iter add g.structure.Sidb.Bdl.fixed;
    Array.iter
      (fun (d : Sidb.Bdl.input_driver) ->
        List.iter add d.Sidb.Bdl.near;
        List.iter add d.Sidb.Bdl.far)
      g.structure.Sidb.Bdl.inputs;
    let spent = ref 0. in
    let timed f =
      let t0 = now () in
      let r = f () in
      spent := !spent +. (now () -. t0);
      r
    in
    let full =
      timed (fun () -> Sidb.Charge_system.create model (Array.of_list (List.rev !rev_sites)))
    in
    let arity = Array.length g.structure.Sidb.Bdl.inputs in
    let rec rows r =
      if r < 1 lsl arity then begin
        let assignment = Array.init arity (fun i -> (r lsr i) land 1 = 1) in
        let sites = Sidb.Bdl.sites_for g.structure assignment in
        let gs =
          timed (fun () ->
              Sidb.Ground_state.pruned ~max_states:8
                (Sidb.Charge_system.sub full (Array.map (Hashtbl.find index) sites)))
        in
        let expected = g.spec assignment in
        let ok =
          gs.Sidb.Ground_state.states <> []
          && List.for_all
               (fun occ ->
                 Array.for_all2
                   (fun p e -> Sidb.Bdl.read_pair sites occ p = Some e)
                   g.structure.Sidb.Bdl.outputs expected)
               gs.Sidb.Ground_state.states
        in
        if ok then rows (r + 1)
      end
    in
    rows 0;
    !spent *. 1000.

  let points_per_gate_sampled = 4

  let traced ~seed =
    let gates = prepare () in
    let rand = stream ~seed ~salt:13 in
    let o = new_overhead () in
    let efficiency = ref [] and gs_share = ref [] in
    let round _ =
      let ops = pass_ops ~rand gates in
      let untraced =
        List.map
          (fun op ->
            let s, out = run_op op in
            o.untraced_ms <- o.untraced_ms +. s.ms;
            out)
          ops
      in
      let grid_ms = Hashtbl.create 8 in
      List.iter
        (fun (gate, alg, (d : OD.t)) ->
          let g = List.find (fun g -> g.gate = gate) gates in
          let config = List.assoc alg algorithms in
          let op = fresh_op () in
          let t0 = now () in
          let d' =
            span ~op
              (if alg = "grid" then "sidb.grid_sweep" else "sidb.ff_sweep")
              ~counters:(fun (d : OD.t) ->
                [
                  ("evaluated", int_f d.OD.stats.OD.points_evaluated);
                  ("total", int_f d.OD.stats.OD.total_points);
                ])
              (fun () -> sweep (g, alg, config))
          in
          let elapsed = (now () -. t0) *. 1000. in
          o.traced_ms <- o.traced_ms +. elapsed;
          if alg = "grid" then Hashtbl.replace grid_ms gate elapsed;
          expect (classes d' = classes d))
        untraced;
      (* Point-level probe, outside the overhead comparison: every grid
         point at jobs 1, plus a seeded sample for the ground-state
         share. *)
      List.iter
        (fun (gate, alg, (d : OD.t)) ->
          if alg = "grid" && Hashtbl.mem grid_ms gate then begin
            let g = List.find (fun g -> g.gate = gate) gates in
            let op = fresh_op () in
            let samples = Array.of_list d.OD.samples in
            let point_ms =
              Array.map
                (fun (s : OD.sample) ->
                  let t0 = now () in
                  let verdict =
                    span ~op "sidb.point" (fun () ->
                        OD.operational_at (model_at s) g.structure ~spec:g.spec)
                  in
                  expect (verdict = s.OD.operational);
                  (now () -. t0) *. 1000.)
                samples
            in
            efficiency :=
              (sum (Array.to_list point_ms) /. (int_f jobs *. Hashtbl.find grid_ms gate))
              :: !efficiency;
            Hashtbl.remove grid_ms gate;
            for _ = 1 to points_per_gate_sampled do
              let k = rand (Array.length samples) in
              gs_share := (ground_state_ms g (model_at samples.(k)) /. point_ms.(k)) :: !gs_share
            done
          end)
        untraced
    in
    let layer_metrics () =
      let ff = spans_named "sidb.ff_sweep" in
      [
        metric "sidb.grid_sweep_ms" "ms" (median_ms "sidb.grid_sweep");
        metric "sidb.ff_sweep_ms" "ms" (median_ms "sidb.ff_sweep");
        metric "sidb.ff_evaluated_share" "fraction"
          (sum (List.map (counter "evaluated") ff) /. sum (List.map (counter "total") ff));
        metric "sidb.point_ms" "ms" (median_ms "sidb.point");
        metric "sidb.point_words" "words" (median_words "sidb.point");
        metric "sidb.ground_state_share" "fraction" (median !gs_share);
        metric "parallel.efficiency" "fraction" (median !efficiency);
        overhead_metric "gate_domains" o;
      ]
    in
    { round; layer_metrics }
end

(* ------------------------------------------------------------------ *)
(* serve_session                                                        *)
(* ------------------------------------------------------------------ *)

module Serve_session = struct
  module SJ = Serve.Json

  let circuits = Table1.circuits

  (* Per pass and circuit: 4 repeats of a source already served (memo
     hits) and 1 structurally new source (a miss, inserted): 60 ops, hits
     4/5.  The median sits mid-way through the 8th-ranked hit class; the
     p97.5 tail sits inside the 11th-ranked miss class. *)
  let hits_per_circuit = 4
  let tail_p = 0.975

  type kind = Hit | Miss

  let kind_name = function Hit -> "hit" | Miss -> "miss"

  let request ~id source =
    SJ.to_string
      (SJ.Obj
         [
           ("fictionette-serve", SJ.Num 1.);
           ("kind", SJ.Str "design");
           ("id", SJ.Str id);
           ("verilog", SJ.Str source);
         ])

  let stats_line = "{\"fictionette-serve\":1,\"kind\":\"stats\"}"

  let config = { Serve.Server.default_config with Serve.Server.sleep = (fun _ -> ()) }

  type state = {
    server : Serve.Server.t;
    nets : (string * Logic.Network.t) list;
    hit_sources : (string * string) list;
    salt : int;
    mutable misses : int;
  }

  (* Module names are salted from the seed: hit sources keep theirs,
     every miss gets a new one, so its source digest is new. *)
  let prepare ~seed () =
    let salt = stream ~seed ~salt:4 0x1000000 in
    let nets = List.map (fun c -> (c, Table1.network c)) circuits in
    let hit_sources =
      List.map
        (fun (c, n) -> (c, Logic.Verilog.to_verilog n ~name:(Printf.sprintf "%s_h%x" c salt)))
        nets
    in
    let server = Serve.Server.create ~config () in
    List.iter
      (fun (c, src) -> ignore (Serve.Server.handle_line server (request ~id:("setup-" ^ c) src)))
      hit_sources;
    { server; nets; hit_sources; salt; misses = 0 }

  let miss_line st c =
    st.misses <- st.misses + 1;
    let name = Printf.sprintf "%s_m%x_%d" c st.salt st.misses in
    request ~id:name (Logic.Verilog.to_verilog (List.assoc c st.nets) ~name)

  (* The pass's request lines, generated before any of them is sent. *)
  let pass_plan ~rand st =
    let slots =
      List.concat_map
        (fun c -> (c, Miss) :: List.init hits_per_circuit (fun _ -> (c, Hit)))
        circuits
    in
    Array.to_list
      (Array.mapi
         (fun i (c, kind) ->
           match kind with
           | Hit -> (c, kind, request ~id:(Printf.sprintf "hit-%s-%d" c i) (List.assoc c st.hit_sources))
           | Miss -> (c, kind, miss_line st c))
         (shuffle rand (Array.of_list slots)))

  let op_of st (c, kind, line) =
    { cls = kind_name kind ^ ":" ^ c; run = (fun () -> (c, kind, line, Serve.Server.handle_line st.server line)) }

  (* Fields that differ between two correct answers to one request. *)
  let rec normalize = function
    | SJ.Obj fields ->
        SJ.Obj
          (List.filter_map
             (fun (k, v) ->
               if List.mem k [ "latency_ms"; "elapsed_s"; "uptime_s"; "id" ] then None
               else Some (k, normalize v))
             fields)
    | SJ.List xs -> SJ.List (List.map normalize xs)
    | other -> other

  let normalized line =
    match SJ.parse line with Ok j -> SJ.to_string (normalize j) | Error e -> "unparseable: " ^ e

  let limits =
    { Serve.Protocol.max_source_bytes = config.Serve.Server.max_source_bytes; allow_chaos = false }

  let decode line =
    match SJ.parse line with
    | Error e -> Error e
    | Ok j -> (
        match Serve.Protocol.decode limits j with
        | Ok (Serve.Protocol.Single { id; job }) -> Ok (id, job)
        | Ok _ -> Error "not a single job"
        | Error (_, m) -> Error m)

  (* A fresh context: no memo entries, no metrics history. *)
  let fresh_response line =
    match decode line with
    | Error e -> "undecodable: " ^ e
    | Ok (id, job) ->
        let ctx = { (Serve.Handlers.default_ctx ()) with Serve.Handlers.sleep = (fun _ -> ()) } in
        SJ.to_string (Serve.Handlers.run_job ctx ~id job)

  let path keys j = List.fold_left (fun j k -> Option.bind j (SJ.mem k)) (Some j) keys
  let num_at keys j = Option.bind (path keys j) SJ.num

  let area_of line =
    match SJ.parse line with
    | Ok j -> Option.value (num_at [ "result"; "layout"; "area_tiles" ] j) ~default:nan
    | Error _ -> nan

  type kept = { k_circuit : string; k_kind : kind; k_line : string; k_response : string list }

  let keep (c, kind, line, resp) = { k_circuit = c; k_kind = kind; k_line = line; k_response = resp }

  (* Per circuit: the fresh-context response to its hit source must carry
     the committed area and Verilog SiDB count, and the flow's layout must
     pass the brute-force equivalence re-check. *)
  let references st =
    let expected = Expected.table1 () in
    List.map
      (fun (c, src) ->
        let reference = fresh_response (request ~id:"ref" src) in
        let sound =
          match SJ.parse reference with
          | Error _ -> false
          | Ok j ->
              let e = Expected.find c expected c in
              SJ.mem "status" j = Some (SJ.Str "ok")
              && num_at [ "result"; "layout"; "area_tiles" ] j = Some (int_f e.Expected.area)
              && num_at [ "result"; "sidb"; "count" ] j = Some (int_f e.Expected.verilog_sidbs)
              && num_at [ "result"; "drc_violations" ] j = Some 0.
              && path [ "result"; "equivalence" ] j = Some (SJ.Str "equivalent")
              &&
              match Core.Flow.run_verilog src with
              | Ok r ->
                  r.Core.Flow.drc_violations = []
                  && Table1.brute_force r.Core.Flow.specification r.Core.Flow.gate_layout
              | Error _ -> false
        in
        (c, (normalized reference, sound)))
      st.hit_sources

  let run ~seed ~seconds =
    let st, setup_s, raw_setup_s = repeated_setup (prepare ~seed) in
    let rand = stream ~seed ~salt:5 in
    let phase, kept =
      timed_phase ~seconds ~tail_p ~keep
        ~after_pass:(fun _ -> ignore (Serve.Server.handle_line st.server stats_line))
        ~pass:(fun _ -> List.map (op_of st) (pass_plan ~rand st))
        ()
    in
    let refs = references st in
    (* One seeded miss is also answered from a fresh context on its own
       (salted) source. *)
    let misses = Array.of_list (List.filter (fun k -> k.k_kind = Miss) kept) in
    let sampled = misses.(rand (Array.length misses)) in
    let sampled_ok =
      match sampled.k_response with
      | [ r ] -> normalized r = normalized (fresh_response sampled.k_line)
      | _ -> false
    in
    let oks =
      List.map
        (fun k ->
          let reference, sound = List.assoc k.k_circuit refs in
          sound
          && (k != sampled || sampled_ok)
          && match k.k_response with [ r ] -> normalized r = reference | _ -> false)
        kept
    in
    let areas =
      List.map (fun k -> (k.k_circuit, match k.k_response with [ r ] -> area_of r | _ -> nan)) kept
    in
    let expected = Expected.table1 () in
    let quality =
      sum (List.map (fun (c, _) -> int_f (Expected.find c expected c).Expected.area) areas)
      /. sum (List.map snd areas)
    in
    let distinct = List.map (fun (_, l) -> List.hd l) (group areas) in
    end_to_end ~setup:(setup_s, raw_setup_s) ~phase ~tail_p ~oks ~area:(sum distinct) ~quality ()

  (* The replay: the calls Server.handle_line makes for one design line —
     parse and decode, Handlers.run_job on the server's shared context,
     encode. *)
  let replay ~op st kind line =
    span ~op "serve.request" (fun () ->
        match span ~op "serve.decode" (fun () -> decode line) with
        | Error e -> "undecodable: " ^ e
        | Ok (id, job) ->
            let response =
              span ~op
                (match kind with Hit -> "serve.run_job_hit" | Miss -> "serve.run_job_miss")
                (fun () -> Serve.Handlers.run_job (Serve.Server.ctx st.server) ~id job)
            in
            span ~op "serve.encode" (fun () -> SJ.to_string response))

  let traced ~seed =
    let st = prepare ~seed () in
    let rand = stream ~seed ~salt:14 in
    let o = new_overhead () in
    let round _ =
      let plan = pass_plan ~rand st in
      let untraced =
        List.map
          (fun p ->
            let s, (_, _, _, resp) = run_op (op_of st p) in
            o.untraced_ms <- o.untraced_ms +. s.ms;
            resp)
          plan
      in
      ignore (Serve.Server.handle_line st.server stats_line);
      List.iter2
        (fun (c, kind, line) resp ->
          (* a miss is replayed on a new module name, so it misses too *)
          let line = match kind with Hit -> line | Miss -> miss_line st c in
          let t0 = now () in
          let out = replay ~op:(fresh_op ()) st kind line in
          o.traced_ms <- o.traced_ms +. ((now () -. t0) *. 1000.);
          expect (match resp with [ r ] -> normalized r = normalized out | _ -> false))
        plan untraced;
      ignore (Serve.Server.handle_line st.server stats_line)
    in
    let layer_metrics () =
      let stats =
        match Serve.Server.handle_line st.server stats_line with
        | [ r ] -> ( match SJ.parse r with Ok j -> SJ.mem "result" j | Error _ -> None)
        | _ -> None
      in
      let stat keys = Option.value (Option.bind stats (num_at keys)) ~default:nan in
      [
        metric "serve.decode_ms" "ms" (median_ms "serve.decode");
        metric "serve.run_job_hit_ms" "ms" (median_ms "serve.run_job_hit");
        metric "serve.run_job_miss_ms" "ms" (median_ms "serve.run_job_miss");
        metric "serve.encode_ms" "ms" (median_ms "serve.encode");
        metric "serve.memo_hit_rate" "fraction" (stat [ "cache"; "layout_hit_rate" ]);
        metric "serve.failed_or_retried" "count"
          (stat [ "errors" ] +. stat [ "retries" ] +. stat [ "degraded" ] +. stat [ "shed" ]
          +. stat [ "protocol_errors" ]);
        overhead_metric "serve_session" o;
      ]
    in
    { round; layer_metrics }
end
