type pair = { zero : Lattice.site; one : Lattice.site }

type input_driver = { near : Lattice.site list; far : Lattice.site list }

type structure = {
  name : string;
  inputs : input_driver array;
  outputs : pair array;
  fixed : Lattice.site list;
}

let sites_for s assignment =
  if Array.length assignment <> Array.length s.inputs then
    invalid_arg "Bdl.sites_for: assignment arity mismatch";
  let perturbers =
    List.concat
      (List.mapi
         (fun i driver -> if assignment.(i) then driver.near else driver.far)
         (Array.to_list s.inputs))
  in
  Array.of_list (s.fixed @ perturbers)

let read_pair sites occ p =
  let find site =
    let rec go i =
      if i >= Array.length sites then None
      else if Lattice.equal sites.(i) site then Some occ.(i)
      else go (i + 1)
    in
    go 0
  in
  match (find p.zero, find p.one) with
  | Some z, Some o ->
      if o && not z then Some true
      else if z && not o then Some false
      else None
  | _ -> None

type engine =
  | Exhaustive
  | Pruned
  | Quicksim of Ground_state.quicksim_config

let engine_name = function
  | Exhaustive -> "exhaustive"
  | Pruned -> "pruned"
  | Quicksim _ -> "quicksim"

let engine_exact = function Exhaustive | Pruned -> true | Quicksim _ -> false

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "exhaustive" | "exgs" -> Ok Exhaustive
  | "pruned" | "quickexact" -> Ok Pruned
  | "quicksim" -> Ok (Quicksim Ground_state.default_quicksim)
  | other ->
      Error
        (Printf.sprintf
           "unknown simulation engine %S (expected exhaustive, pruned, or \
            quicksim)"
           other)

let engine_env_var = "FICTIONETTE_SIM_ENGINE"

let resolve_engine ~flag ~env =
  match flag with
  | Some e -> Some e
  | None ->
      Option.bind env (fun s -> Result.to_option (engine_of_string s))

type row_result = {
  assignment : bool array;
  expected : bool array;
  observed : bool option array list;
  ground_energy : float;
  ok : bool;
}

type report = { structure : structure; rows : row_result list; functional : bool }

let solve engine sys =
  match engine with
  | Exhaustive -> Ground_state.exhaustive sys
  | Pruned -> Ground_state.pruned sys
  | Quicksim config -> Ground_state.quicksim ~config sys

let check ?(engine = Pruned) ?(model = Model.default) ?v_ext_at s
    ~spec =
  let arity = Array.length s.inputs in
  let rows = ref [] in
  for row = 0 to (1 lsl arity) - 1 do
    let assignment = Array.init arity (fun i -> (row lsr i) land 1 = 1) in
    let expected = spec assignment in
    let sites = sites_for s assignment in
    let sys =
      match v_ext_at with
      | None -> Charge_system.create model sites
      | Some f -> Charge_system.create ~v_ext:(Array.map f sites) model sites
    in
    let result = solve engine sys in
    let observed =
      List.map
        (fun occ ->
          Array.map (fun p -> read_pair sites occ p) s.outputs)
        result.Ground_state.states
    in
    let ok =
      observed <> []
      && List.for_all
           (fun obs ->
             Array.length obs = Array.length expected
             && Array.for_all2
                  (fun o e -> match o with Some v -> v = e | None -> false)
                  obs expected)
           observed
    in
    rows :=
      {
        assignment;
        expected;
        observed;
        ground_energy = result.Ground_state.energy;
        ok;
      }
      :: !rows
  done;
  let rows = List.rev !rows in
  { structure = s; rows; functional = List.for_all (fun r -> r.ok) rows }

let operational r = r.functional


let logic_margin ?(model = Model.default) ?(window = 0.25) s ~spec =
  let arity = Array.length s.inputs in
  let worst = ref infinity in
  for row = 0 to (1 lsl arity) - 1 do
    let assignment = Array.init arity (fun i -> (row lsr i) land 1 = 1) in
    let expected = spec assignment in
    let sites = sites_for s assignment in
    let sys = Charge_system.create model sites in
    let spectrum = Ground_state.spectrum ~window sys in
    let e0 = match spectrum with (_, e) :: _ -> e | [] -> 0. in
    let wrong_energy =
      List.fold_left
        (fun acc (occ, e) ->
          let obs = Array.map (fun p -> read_pair sites occ p) s.outputs in
          let right =
            Array.length obs = Array.length expected
            && Array.for_all2 (fun o ex -> o = Some ex) obs expected
          in
          if right then acc else min acc e)
        infinity spectrum
    in
    let margin =
      if wrong_energy = infinity then window else wrong_energy -. e0
    in
    if margin < !worst then worst := margin
  done;
  if !worst = infinity then window else max 0. !worst
