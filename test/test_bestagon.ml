(* Tests for the Bestagon gate library: geometry, scaffolds, designs
   (re-validated by exact simulation), library application, the gate
   designer, and .sqd export. *)

module D = Hexlib.Direction
module C = Hexlib.Coord
module L = Sidb.Lattice
module G = Bestagon.Geometry
module Sc = Bestagon.Scaffold
module Ds = Bestagon.Designs
module Lib = Bestagon.Library
module Tile = Layout.Tile
module M = Logic.Mapped
module GL = Layout.Gate_layout

let offset col row : C.offset = { col; row }

(* --- geometry ------------------------------------------------------------- *)

let test_tile_dimensions () =
  Alcotest.(check int) "columns" 60 G.tile_columns;
  Alcotest.(check int) "rows" 23 G.tile_rows;
  (* The area model matches the paper's Table 1 to the cent. *)
  Alcotest.(check (float 0.01)) "xor2 area" 2403.98
    (Lib.area_nm2 ~width_tiles:2 ~height_tiles:3);
  Alcotest.(check (float 0.01)) "newtag area" 32419.82
    (Lib.area_nm2 ~width_tiles:8 ~height_tiles:10);
  Alcotest.(check (float 0.01)) "cm82a area" 30377.56
    (Lib.area_nm2 ~width_tiles:5 ~height_tiles:15)

let test_port_anchors () =
  let x, y = G.port_anchor D.North_west in
  Alcotest.(check (float 1e-9)) "nw x" (15. *. 3.84) x;
  Alcotest.(check (float 1e-9)) "nw y" 7.68 y;
  Alcotest.(check bool) "lateral rejected" true
    (try
       ignore (G.port_anchor D.East);
       false
     with Invalid_argument _ -> true)

let test_snap () =
  let s = G.snap (7.7, 9.9) in
  Alcotest.(check bool) "snaps to (2,1,1)" true (L.equal s (L.site 2 1 1));
  let s = G.snap (0.1, 0.1) in
  Alcotest.(check bool) "snaps to origin" true (L.equal s (L.site 0 0 0))

let test_bdl_chain_spacing () =
  let chain = G.bdl_chain ~from:(0., 0.) ~towards:(0., 100.) ~pairs:3 in
  Alcotest.(check int) "three pairs" 3 (List.length chain);
  List.iter
    (fun (a, b) ->
      Alcotest.(check (float 1.0)) "intra spacing" 7.68 (L.distance a b))
    chain;
  let (_, b1) = List.nth chain 0 and (a2, _) = List.nth chain 1 in
  Alcotest.(check (float 1.0)) "inter spacing" 23.04 (L.distance b1 a2)

let test_tile_origin_shift () =
  Alcotest.(check (pair int int)) "even row" (120, 46)
    (G.tile_origin (offset 2 2));
  Alcotest.(check (pair int int)) "odd row shifted" (150, 69)
    (G.tile_origin (offset 2 3))

(* --- scaffolds ----------------------------------------------------------------- *)

let test_scaffold_structure () =
  let s = Sc.make ~in_ports:[ D.North_west; D.North_east ] ~out_ports:[ D.South_east ] () in
  Alcotest.(check int) "drivers" 2 (Array.length s.Sc.drivers);
  Alcotest.(check int) "output pairs" 1 (Array.length s.Sc.output_pairs);
  Alcotest.(check int) "stub dots: 2 in-stubs + 1 out-stub, 2 pairs each" 12
    (List.length s.Sc.stub_dots);
  Alcotest.(check int) "one output perturber" 1
    (List.length s.Sc.output_perturbers);
  Alcotest.(check bool) "canvas nonempty" true (Sc.canvas_sites s <> [])

let test_canvas_clearance () =
  let s = Sc.make ~in_ports:[ D.North_west ] ~out_ports:[ D.South_east ] () in
  List.iter
    (fun site ->
      List.iter
        (fun dot ->
          Alcotest.(check bool) "clearance" true (L.distance site dot >= 7.5))
        s.Sc.stub_dots)
    (Sc.canvas_sites s)

(* --- validated designs: re-check every flagged design by exact simulation --- *)

let check_design name tile =
  match (Lib.validation_structure tile, Lib.tile_spec tile) with
  | Some s, Some spec ->
      let report = Sidb.Bdl.check s ~spec in
      Alcotest.(check bool) (name ^ " operational") true
        (Sidb.Bdl.operational report)
  | _ -> Alcotest.fail (name ^ ": no validation structure")

let gate2 fn out = Tile.Gate { fn; ins = [ D.North_west; D.North_east ]; outs = [ out ] }

let test_or_gate () = check_design "or" (gate2 M.Or2 D.South_east)
let test_and_gate () = check_design "and" (gate2 M.And2 D.South_east)
let test_nor_gate () = check_design "nor" (gate2 M.Nor2 D.South_east)
let test_nand_gate () = check_design "nand" (gate2 M.Nand2 D.South_east)
let test_xor_gate () = check_design "xor" (gate2 M.Xor2 D.South_east)
let test_xnor_gate () = check_design "xnor" (gate2 M.Xnor2 D.South_east)

let test_mirrored_gates () =
  (* West-facing variants derived by mirroring remain operational. *)
  check_design "or-sw" (gate2 M.Or2 D.South_west);
  check_design "xor-sw" (gate2 M.Xor2 D.South_west)

let test_inverters () =
  check_design "inv-diag"
    (Tile.Gate { fn = M.Inv; ins = [ D.North_west ]; outs = [ D.South_east ] });
  check_design "inv-straight"
    (Tile.Gate { fn = M.Inv; ins = [ D.North_west ]; outs = [ D.South_west ] });
  check_design "inv-mirrored"
    (Tile.Gate { fn = M.Inv; ins = [ D.North_east ]; outs = [ D.South_west ] })

let test_wires () =
  check_design "wire-diag"
    (Tile.Wire { segments = [ (D.North_west, D.South_east) ] });
  check_design "wire-straight"
    (Tile.Wire { segments = [ (D.North_west, D.South_west) ] });
  check_design "wire-diag-mirror"
    (Tile.Wire { segments = [ (D.North_east, D.South_west) ] });
  check_design "wire-straight-mirror"
    (Tile.Wire { segments = [ (D.North_east, D.South_east) ] })

let test_mirror_site () =
  let s = L.site 37 14 0 in
  Alcotest.(check bool) "mirrored" true
    (L.equal (Ds.mirror_site s) (L.site 23 14 0));
  Alcotest.(check bool) "involution" true
    (L.equal (Ds.mirror_site (Ds.mirror_site s)) s)

(* --- library application ----------------------------------------------------- *)

let test_implement_all_tiles () =
  (* Every tile configuration the physical design can produce has a
     library realization. *)
  let tiles =
    [ Tile.Pi { name = "a"; out = D.South_east };
      Tile.Pi { name = "a"; out = D.South_west };
      Tile.Po { name = "y"; inp = D.North_west };
      Tile.Po { name = "y"; inp = D.North_east };
      Tile.Fanout { inp = D.North_west; outs = [ D.South_west; D.South_east ] };
      Tile.Fanout { inp = D.North_east; outs = [ D.South_west; D.South_east ] };
      Tile.Wire
        { segments = [ (D.North_west, D.South_west); (D.North_east, D.South_east) ] };
      Tile.Wire
        { segments = [ (D.North_west, D.South_east); (D.North_east, D.South_west) ] };
      Tile.Gate
        { fn = M.Ha;
          ins = [ D.North_west; D.North_east ];
          outs = [ D.South_west; D.South_east ] };
    ]
    @ List.concat_map
        (fun fn -> [ gate2 fn D.South_east; gate2 fn D.South_west ])
        [ M.And2; M.Or2; M.Nand2; M.Nor2; M.Xor2; M.Xnor2 ]
  in
  List.iter
    (fun tile ->
      match Lib.implement tile with
      | Ok impl ->
          Alcotest.(check bool) "has dots" true (impl.Lib.sites <> [])
      | Error e -> Alcotest.fail (Tile.label tile ^ ": " ^ e))
    tiles

let test_implement_rejects_illegal () =
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Lib.implement Tile.Empty));
  Alcotest.(check bool) "northward gate rejected" true
    (Result.is_error
       (Lib.implement
          (Tile.Gate
             { fn = M.Inv; ins = [ D.South_west ]; outs = [ D.North_east ] })))

let test_apply_xor_layout () =
  let l = GL.create ~width:2 ~height:3 ~clocking:(GL.Scheme Layout.Clocking.Row) in
  GL.set l (offset 0 0) (Tile.Pi { name = "a"; out = D.South_east });
  GL.set l (offset 1 0) (Tile.Pi { name = "b"; out = D.South_west });
  GL.set l (offset 0 1) (gate2 M.Xor2 D.South_west);
  GL.set l (offset 0 2) (Tile.Po { name = "f"; inp = D.North_east });
  match Lib.apply l with
  | Error e -> Alcotest.fail e
  | Ok sidb ->
      Alcotest.(check int) "width" 2 sidb.Lib.width_tiles;
      Alcotest.(check int) "height" 3 sidb.Lib.height_tiles;
      Alcotest.(check (float 0.01)) "area" 2403.98 sidb.Lib.area_nm2;
      (* All dots are distinct in global coordinates. *)
      let sorted = List.sort_uniq L.compare sidb.Lib.sites in
      Alcotest.(check int) "no overlapping dots" (List.length sidb.Lib.sites)
        (List.length sorted);
      Alcotest.(check bool) "plausible dot count" true
        (sidb.Lib.sidb_count > 30 && sidb.Lib.sidb_count < 100)

let test_apply_input_values () =
  let l = GL.create ~width:1 ~height:2 ~clocking:(GL.Scheme Layout.Clocking.Row) in
  GL.set l (offset 0 0) (Tile.Pi { name = "a"; out = D.South_east });
  GL.set l (offset 0 1) (Tile.Po { name = "y"; inp = D.North_west });
  match (Lib.apply ~inputs:[ ("a", true) ] l, Lib.apply l) with
  | Ok with1, Ok with0 ->
      (* Same dot count, but at least one dot moved (near vs far
         perturber). *)
      Alcotest.(check int) "same count" with1.Lib.sidb_count with0.Lib.sidb_count;
      Alcotest.(check bool) "different positions" true
        (List.sort L.compare with1.Lib.sites
        <> List.sort L.compare with0.Lib.sites)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* --- designer ---------------------------------------------------------------------- *)

let test_score_structure () =
  (* The validated OR design scores 100. *)
  let tile = gate2 M.Or2 D.South_east in
  match (Lib.validation_structure tile, Lib.tile_spec tile) with
  | Some s, Some spec ->
      let score, functional = Bestagon.Designer.score_structure s ~spec in
      Alcotest.(check (float 0.01)) "perfect score" 100. score;
      Alcotest.(check bool) "functional" true functional
  | _ -> Alcotest.fail "no structure"

let test_score_wrong_spec () =
  (* The OR design checked against AND must not be functional. *)
  let tile = gate2 M.Or2 D.South_east in
  match Lib.validation_structure tile with
  | Some s ->
      let _, functional =
        Bestagon.Designer.score_structure s ~spec:(fun i ->
            [| i.(0) && i.(1) |])
      in
      Alcotest.(check bool) "not functional" false functional
  | None -> Alcotest.fail "no structure"

let test_designer_finds_or () =
  (* From scratch, a short SA run rediscovers an OR gate. *)
  let scaffold =
    Sc.make ~in_ports:[ D.North_west; D.North_east ]
      ~out_ports:[ D.South_east ] ()
  in
  let outcome =
    Bestagon.Designer.design
      ~params:
        { Bestagon.Designer.default_params with iterations = 1500 }
      ~seed:7
      ~initial:[ L.site 30 10 0; L.site 30 11 0 ]
      scaffold ~name:"or" ~spec:(fun i -> [| i.(0) || i.(1) |])
  in
  Alcotest.(check bool) "found" true outcome.Bestagon.Designer.functional

let test_logic_margin () =
  (* Validated designs have a non-negative margin; the wrong spec has a
     zero margin (its "correct" states are not the ground states). *)
  let tile = gate2 M.Or2 D.South_east in
  match Lib.validation_structure tile with
  | Some s ->
      let margin = Sidb.Bdl.logic_margin s ~spec:(fun i -> [| i.(0) || i.(1) |]) in
      Alcotest.(check bool) "non-negative" true (margin >= 0.);
      let wrong = Sidb.Bdl.logic_margin s ~spec:(fun i -> [| i.(0) && i.(1) |]) in
      Alcotest.(check bool) "wrong spec has no margin" true (wrong <= 1e-9)
  | None -> Alcotest.fail "no structure"

(* --- sqd export --------------------------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_sqd_format () =
  let text = Bestagon.Sqd.of_sites [ L.site 1 2 0; L.site 3 4 1 ] in
  Alcotest.(check bool) "xml header" true (contains text "<?xml version");
  Alcotest.(check bool) "siqad root" true (contains text "<siqad>");
  Alcotest.(check bool) "dots present" true
    (contains text "latcoord n=\"1\" m=\"2\" l=\"0\""
    && contains text "latcoord n=\"3\" m=\"4\" l=\"1\"");
  Alcotest.(check bool) "closed" true (contains text "</siqad>")

let test_sqd_structure_export () =
  let tile = gate2 M.Or2 D.South_east in
  match Lib.validation_structure tile with
  | Some s ->
      let text = Bestagon.Sqd.of_structure s ~assignment:[| true; false |] in
      Alcotest.(check bool) "has dots" true (contains text "<dbdot>")
  | None -> Alcotest.fail "no structure"

(* DB spacing (post-route design rule on dot placements). *)

let test_spacing_clean_design () =
  match Lib.validation_structure (gate2 M.Or2 D.South_east) with
  | None -> Alcotest.fail "no OR structure"
  | Some s ->
      Alcotest.(check int) "validated design is clean" 0
        (List.length (G.spacing_violations s.Sidb.Bdl.fixed))

let test_spacing_duplicate_site () =
  let a : L.site = { L.n = 10; m = 4; l = 0 } in
  let b : L.site = { L.n = 30; m = 8; l = 1 } in
  match G.spacing_violations [ a; b; a ] with
  | [ (x, y, d) ] ->
      Alcotest.(check (float 1e-9)) "zero distance" 0.0 d;
      Alcotest.(check bool) "the duplicated site" true
        (x = a && y = a)
  | vs -> Alcotest.fail (Printf.sprintf "%d violation(s)" (List.length vs))

let test_spacing_same_dimer () =
  (* Both atoms of one dimer: 2.25 A apart, below the 5 A floor. *)
  let a : L.site = { L.n = 0; m = 0; l = 0 } in
  let b : L.site = { L.n = 0; m = 0; l = 1 } in
  Alcotest.(check int) "same-dimer pair flagged" 1
    (List.length (G.spacing_violations [ a; b ]));
  (* Horizontally adjacent columns (3.84 A) are also too close... *)
  let c : L.site = { L.n = 1; m = 0; l = 0 } in
  Alcotest.(check int) "adjacent columns flagged" 1
    (List.length (G.spacing_violations [ a; c ]));
  (* ...but one dimer row apart (7.68 A) is legal. *)
  let d : L.site = { L.n = 0; m = 1; l = 0 } in
  Alcotest.(check int) "row pitch legal" 0
    (List.length (G.spacing_violations [ a; d ]))

(* --- operational-domain algorithms on the library gates ----------------- *)

let library_gates () =
  [
    ("wire", Tile.Wire { segments = [ (D.North_west, D.South_east) ] });
    ("inverter", Tile.Gate { fn = M.Inv; ins = [ D.North_west ]; outs = [ D.South_east ] });
    ("or2", gate2 M.Or2 D.South_east);
    ("and2", gate2 M.And2 D.South_east);
    ("nor2", gate2 M.Nor2 D.South_east);
    ("nand2", gate2 M.Nand2 D.South_east);
    ("xor2", gate2 M.Xor2 D.South_east);
    ("xnor2", gate2 M.Xnor2 D.South_east);
  ]

let test_domain_algorithms () =
  (* Flood fill and contour tracing vs the exhaustive grid on every
     library gate at a matched grid: any point a sampled algorithm
     evaluated must carry the grid's exact classification, the grid
     (shared geometry + adaptive rows) must match the per-point
     reference ([OD.operational_at] at each point) everywhere, and flood
     fill's fraction is a lower bound on the grid's. *)
  let module OD = Sidb.Operational_domain in
  (* The (μ₋, ε_r) plane at λ_TF = 5 nm holds a real connected region for
     the big-domain gates (wire/or2/and2), so the sampled algorithms have
     something to find; λ_TF sweeps read empty off the λ = 5 band. *)
  let x_axis =
    { OD.parameter = OD.Mu_minus; from_value = -1.2; to_value = 0.0; steps = 6 }
  in
  let y_axis =
    { OD.parameter = OD.Epsilon_r; from_value = 1.0; to_value = 14.0; steps = 6 }
  in
  List.iter
    (fun (name, tile) ->
      match (Lib.validation_structure tile, Lib.tile_spec tile) with
      | Some s, Some spec ->
          let run config = OD.sweep ~config ~x_axis ~y_axis s ~spec in
          let ops d = List.map (fun sm -> sm.OD.operational) d.OD.samples in
          let grid = run OD.default_config in
          let reference =
            List.map
              (fun (sm : OD.sample) ->
                OD.operational_at
                  (OD.set_parameter
                     (OD.set_parameter Sidb.Model.default x_axis.OD.parameter
                        sm.OD.x_value)
                     y_axis.OD.parameter sm.OD.y_value)
                  s ~spec)
              grid.OD.samples
          in
          Alcotest.(check bool) (name ^ ": grid = per-point reference") true
            (ops grid = reference);
          Alcotest.(check int) (name ^ ": grid evaluates everything")
            grid.OD.stats.OD.total_points grid.OD.stats.OD.points_evaluated;
          List.iter
            (fun algorithm ->
              let d = run { OD.default_config with algorithm; samples = 10 } in
              let aname = OD.algorithm_name algorithm in
              List.iter2
                (fun g a ->
                  if a.OD.evaluated then
                    Alcotest.(check bool)
                      (Printf.sprintf "%s/%s: evaluated point agrees" name aname)
                      g.OD.operational a.OD.operational)
                grid.OD.samples d.OD.samples;
              Alcotest.(check int)
                (Printf.sprintf "%s/%s: evaluated count consistent" name aname)
                (List.length (List.filter (fun sm -> sm.OD.evaluated) d.OD.samples))
                d.OD.stats.OD.points_evaluated;
              if algorithm = OD.Flood_fill then
                Alcotest.(check bool)
                  (name ^ "/flood-fill: fraction is a lower bound") true
                  (d.OD.operational_fraction
                  <= grid.OD.operational_fraction +. 1e-12))
            [ OD.Flood_fill; OD.Contour_tracing ]
      | _ -> Alcotest.fail (name ^ ": no validation structure"))
    (library_gates ())

let test_yield_tile_seeds_distinct () =
  (* The per-tile seed mix must separate neighboring (seed, index)
     pairs: seed s at tile i must not draw like seed s+1 at tile i-1
     (the old [seed + i] derivation did exactly that). *)
  let pairs =
    List.concat_map
      (fun s -> List.map (fun i -> (s, i)) [ 0; 1; 2; 3 ])
      [ 40; 41; 42; 43 ]
  in
  let seeds = List.map (fun (s, i) -> Bestagon.Yield.tile_seed s i) pairs in
  let sorted = List.sort_uniq compare seeds in
  Alcotest.(check int) "all distinct" (List.length pairs)
    (List.length sorted)

let () =
  Alcotest.run "bestagon"
    [
      ( "geometry",
        [
          Alcotest.test_case "tile dimensions / area model" `Quick test_tile_dimensions;
          Alcotest.test_case "port anchors" `Quick test_port_anchors;
          Alcotest.test_case "snap" `Quick test_snap;
          Alcotest.test_case "chain spacing" `Quick test_bdl_chain_spacing;
          Alcotest.test_case "tile origin" `Quick test_tile_origin_shift;
        ] );
      ( "scaffold",
        [
          Alcotest.test_case "structure" `Quick test_scaffold_structure;
          Alcotest.test_case "canvas clearance" `Quick test_canvas_clearance;
        ] );
      ( "designs",
        [
          Alcotest.test_case "or" `Slow test_or_gate;
          Alcotest.test_case "and" `Slow test_and_gate;
          Alcotest.test_case "nor" `Slow test_nor_gate;
          Alcotest.test_case "nand" `Slow test_nand_gate;
          Alcotest.test_case "xor" `Slow test_xor_gate;
          Alcotest.test_case "xnor" `Slow test_xnor_gate;
          Alcotest.test_case "mirrored" `Slow test_mirrored_gates;
          Alcotest.test_case "inverters" `Slow test_inverters;
          Alcotest.test_case "wires" `Slow test_wires;
          Alcotest.test_case "mirror site" `Quick test_mirror_site;
        ] );
      ( "spacing",
        [
          Alcotest.test_case "clean design" `Quick test_spacing_clean_design;
          Alcotest.test_case "duplicate site" `Quick
            test_spacing_duplicate_site;
          Alcotest.test_case "same dimer" `Quick test_spacing_same_dimer;
          Alcotest.test_case "tile seeds distinct" `Quick
            test_yield_tile_seeds_distinct;
        ] );
      ( "operational-domain",
        [ Alcotest.test_case "algorithms vs grid" `Slow test_domain_algorithms ] );
      ( "library",
        [
          Alcotest.test_case "implement all" `Quick test_implement_all_tiles;
          Alcotest.test_case "rejects illegal" `Quick test_implement_rejects_illegal;
          Alcotest.test_case "apply xor layout" `Quick test_apply_xor_layout;
          Alcotest.test_case "input values" `Quick test_apply_input_values;
        ] );
      ( "designer",
        [
          Alcotest.test_case "score validated design" `Slow test_score_structure;
          Alcotest.test_case "wrong spec fails" `Slow test_score_wrong_spec;
          Alcotest.test_case "rediscovers or" `Slow test_designer_finds_or;
          Alcotest.test_case "logic margin" `Slow test_logic_margin;
        ] );
      ( "sqd",
        [
          Alcotest.test_case "format" `Quick test_sqd_format;
          Alcotest.test_case "structure export" `Quick test_sqd_structure_export;
        ] );
    ]
