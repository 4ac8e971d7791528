(* Physical simulation of Bestagon tiles (Fig. 5 of the paper): every
   validated gate is exercised on all input combinations with the exact
   ground-state engine, and one gate is rendered dot by dot.

     dune exec examples/simulate_gates.exe *)

module D = Hexlib.Direction
module M = Logic.Mapped
module L = Sidb.Lattice

let gate2 fn =
  Layout.Tile.Gate
    { fn; ins = [ D.North_west; D.North_east ]; outs = [ D.South_east ] }

let check name tile =
  match
    (Bestagon.Library.validation_structure tile, Bestagon.Library.tile_spec tile)
  with
  | Some s, Some spec ->
      let t0 = Sys.time () in
      let report = Sidb.Bdl.check s ~spec in
      Format.printf "  %-6s %s  (%.2fs, %d SiDBs)@." name
        (if Sidb.Bdl.operational report then "operational"
         else "NOT OPERATIONAL")
        (Sys.time () -. t0)
        (Array.length (Sidb.Bdl.sites_for s (Array.make (Array.length s.Sidb.Bdl.inputs) false)))
  | _ -> Format.printf "  %-6s (no structure)@." name

(* ASCII dot map of a charge configuration. *)
let render_charges sites occ =
  let min_n = Array.fold_left (fun acc (s : L.site) -> min acc s.L.n) max_int sites in
  let max_n = Array.fold_left (fun acc (s : L.site) -> max acc s.L.n) min_int sites in
  let min_m = Array.fold_left (fun acc (s : L.site) -> min acc s.L.m) max_int sites in
  let max_m = Array.fold_left (fun acc (s : L.site) -> max acc s.L.m) min_int sites in
  for m = min_m to max_m do
    for l = 0 to 1 do
      let line = Buffer.create 80 in
      let any = ref false in
      for n = min_n to max_n do
        let c = ref ' ' in
        Array.iteri
          (fun i s ->
            if s.L.n = n && s.L.m = m && s.L.l = l then begin
              any := true;
              c := (if occ.(i) then '@' else 'o')
            end)
          sites;
        Buffer.add_char line !c
      done;
      if !any then Format.printf "    %s@." (Buffer.contents line)
    done
  done

let () =
  Format.printf
    "Exact ground-state validation of the Bestagon tiles (mu- = %.2f eV,@."
    Sidb.Model.default.Sidb.Model.mu_minus;
  Format.printf "eps_r = %.1f, lambda_TF = %.0f nm), cf. Fig. 5:@.@."
    Sidb.Model.default.Sidb.Model.epsilon_r
    Sidb.Model.default.Sidb.Model.lambda_tf;
  List.iter
    (fun (name, fn) -> check name (gate2 fn))
    [
      ("OR", M.Or2); ("AND", M.And2); ("NOR", M.Nor2); ("NAND", M.Nand2);
      ("XOR", M.Xor2); ("XNOR", M.Xnor2);
    ];
  check "INV"
    (Layout.Tile.Gate
       { fn = M.Inv; ins = [ D.North_west ]; outs = [ D.South_east ] });
  check "wire"
    (Layout.Tile.Wire { segments = [ (D.North_west, D.South_east) ] });
  (* Detailed view: the XOR tile's ground state for each input row
     ('@' = negatively charged SiDB, 'o' = neutral). *)
  Format.printf "@.XOR tile ground states:@.";
  (match Bestagon.Library.validation_structure (gate2 M.Xor2) with
  | None -> ()
  | Some s ->
      for row = 0 to 3 do
        let assignment = [| row land 1 = 1; row lsr 1 = 1 |] in
        let sites = Sidb.Bdl.sites_for s assignment in
        let sys = Sidb.Charge_system.create Sidb.Model.default sites in
        let result = Sidb.Ground_state.pruned sys in
        match result.Sidb.Ground_state.states with
        | occ :: _ ->
            Format.printf "@.  inputs a=%b b=%b (energy %.4f eV):@."
              assignment.(0) assignment.(1) result.Sidb.Ground_state.energy;
            render_charges sites occ
        | [] -> ()
      done)
