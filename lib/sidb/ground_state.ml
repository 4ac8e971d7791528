type result = { energy : float; states : bool array list }

let degeneracy r = List.length r.states

let epsilon = 1e-9

(* Gray-code enumeration: consecutive codes differ in one bit, so the
   energy is updated incrementally in O(n) per configuration. *)
let exhaustive ?(max_states = 64) sys =
  let n = Charge_system.size sys in
  if n > 24 then invalid_arg "Ground_state.exhaustive: more than 24 sites";
  if n = 0 then { energy = 0.; states = [ [||] ] }
  else begin
    let mu = (Charge_system.model sys).Model.mu_minus in
    let occ = Array.make n false in
    let best_energy = ref 0. (* the all-neutral configuration *) in
    let best_states = ref [ Array.copy occ ] in
    let current = ref 0. in
    let flip_cost i =
      (* Energy delta of toggling site i. *)
      let dv = ref (mu +. Charge_system.local_potential sys occ i) in
      if occ.(i) then dv := -. !dv;
      !dv
    in
    let total = 1 lsl n in
    for g = 1 to total - 1 do
      (* Bit flipped between Gray codes of g-1 and g. *)
      let flip =
        let x = g lxor (g lsr 1) and y = (g - 1) lxor ((g - 1) lsr 1) in
        let d = x lxor y in
        let rec bit_index k d = if d land 1 = 1 then k else bit_index (k + 1) (d lsr 1) in
        bit_index 0 d
      in
      current := !current +. flip_cost flip;
      occ.(flip) <- not occ.(flip);
      if !current < !best_energy -. epsilon then begin
        best_energy := !current;
        best_states := [ Array.copy occ ]
      end
      else if
        Float.abs (!current -. !best_energy) <= epsilon
        && List.length !best_states < max_states
      then best_states := Array.copy occ :: !best_states
    done;
    { energy = !best_energy; states = List.rev !best_states }
  end

(* QuickExact-style pruned search: depth-first branch and bound over
   the sites in decreasing total-interaction order (strongly coupled
   sites first make the bound effective early), with an admissible
   energy bound and population-stability subtree pruning.

   Interactions are repulsive, so along any completion of a partial
   assignment the potential v_i at a site only grows.  Two sound prune
   rules follow for every assigned site i:

   - occupied: stability finally needs [mu + v_i <= 0]; v_i only grows,
     so [mu + v_i > slack] already means no completion of this subtree
     is population-stable;
   - empty: stability finally needs [mu + v_i >= 0]; the most v_i can
     still gain is [rest_i] (the summed interaction with all unassigned
     sites), so [mu + v_i + rest_i < -slack] dooms the subtree.

   Every global minimum (and every state within [epsilon] of it) is
   population-stable to within [epsilon], so with [slack >> epsilon]
   pruning never drops a state that {!exhaustive} would report: the
   energy and the state set are identical. *)
let pruned ?(max_states = 64) sys =
  let n = Charge_system.size sys in
  if n = 0 then { energy = 0.; states = [ [||] ] }
  else begin
    let mu = (Charge_system.model sys).Model.mu_minus in
    let slack = 1e-6 in
    let weight i =
      let acc = ref 0. in
      for j = 0 to n - 1 do
        if j <> i then acc := !acc +. Charge_system.interaction sys i j
      done;
      !acc
    in
    let order =
      List.sort
        (fun a b -> compare (weight b) (weight a))
        (List.init n (fun i -> i))
      |> Array.of_list
    in
    let occ = Array.make n false in
    let best_energy = ref infinity and best_states = ref [] in
    (* v.(i): potential at site i from currently assigned charges;
       rest.(i): summed interaction of i with all unassigned sites. *)
    let v = Array.make n 0. in
    let rest = Array.make n 0. in
    let zero_occ = Array.make n false in
    for i = 0 to n - 1 do
      v.(i) <- Charge_system.local_potential sys zero_occ i;
      rest.(i) <- weight i
    done;
    let record current =
      if current < !best_energy -. epsilon then begin
        best_energy := current;
        best_states := [ Array.copy occ ]
      end
      else if
        Float.abs (current -. !best_energy) <= epsilon
        && List.length !best_states < max_states
      then best_states := Array.copy occ :: !best_states
    in
    let rec explore depth current =
      if depth = n then record current
      else begin
        (* Admissible lower bound on the remaining energy: every
           still-unassigned site can contribute at least
           min(0, mu + v_i) (interactions among future charges are
           non-negative). *)
        let bound = ref 0. in
        for d = depth to n - 1 do
          let k = order.(d) in
          let c = mu +. v.(k) in
          if c < 0. then bound := !bound +. c
        done;
        if current +. !bound < !best_energy +. epsilon then begin
          let i = order.(depth) in
          let take_rest () =
            for j = 0 to n - 1 do
              if j <> i then
                rest.(j) <- rest.(j) -. Charge_system.interaction sys i j
            done
          in
          let give_rest () =
            for j = 0 to n - 1 do
              if j <> i then
                rest.(j) <- rest.(j) +. Charge_system.interaction sys i j
            done
          in
          let try_occupied () =
            (* v_i only grows: an already-violating occupied site stays
               violating in every completion. *)
            if mu +. v.(i) <= slack then begin
              let delta = mu +. v.(i) in
              occ.(i) <- true;
              for j = 0 to n - 1 do
                if j <> i then
                  v.(j) <- v.(j) +. Charge_system.interaction sys i j
              done;
              take_rest ();
              (* The new charge pushed every previously-occupied assigned
                 site up; any of them past the bound kills the subtree. *)
              let rec assigned_ok d =
                d >= depth
                || (((not occ.(order.(d))) || mu +. v.(order.(d)) <= slack)
                   && assigned_ok (d + 1))
              in
              if assigned_ok 0 then explore (depth + 1) (current +. delta);
              give_rest ();
              for j = 0 to n - 1 do
                if j <> i then
                  v.(j) <- v.(j) -. Charge_system.interaction sys i j
              done;
              occ.(i) <- false
            end
          in
          let try_empty () =
            (* Even with every unassigned site charged, v_i tops out at
               v.(i) + rest.(i). *)
            if mu +. v.(i) +. rest.(i) >= -.slack then begin
              take_rest ();
              (* Assigning i shrank the headroom of every previously-empty
                 assigned site. *)
              let rec assigned_ok d =
                d > depth
                || ((occ.(order.(d))
                    || mu +. v.(order.(d)) +. rest.(order.(d)) >= -.slack)
                   && assigned_ok (d + 1))
              in
              if assigned_ok 0 then explore (depth + 1) current;
              give_rest ()
            end
          in
          if mu +. v.(i) < 0. then begin
            try_occupied ();
            try_empty ()
          end
          else begin
            try_empty ();
            try_occupied ()
          end
        end
      end
    in
    explore 0 0.;
    { energy = !best_energy; states = List.rev !best_states }
  end

(* QuickSim-style heuristic engine (arXiv 2303.03422): many independent
   seeded samples, each a randomized steepest-ish descent over the two
   physical move classes — population updates (toggle a site's charge)
   and configuration updates (hop a charge to an empty site).  Every
   applied move strictly lowers the energy by more than [epsilon], so a
   sample terminates at a state that is population- and
   configuration-stable by construction, i.e. [physically_valid].
   Samples are merged deterministically in sample-index order, so the
   result is bit-identical at any [--jobs] (the Parallel.Pool
   contract). *)

type quicksim_config = {
  samples : int;
  iterations : int;
  alpha : float;
  seed : int;
  max_states : int;
}

let default_quicksim =
  { samples = 64; iterations = 20_000; alpha = 2.0; seed = 1; max_states = 64 }

(* Splitmix64 stream: decorrelates per-sample RNGs from consecutive
   sample indices (same mixing as Bestagon.Yield.tile_seed). *)
let quicksim_seed base k =
  let open Int64 in
  let z = add (of_int base) (mul (of_int (k + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical z 2)

let quicksim_sample sys config k =
  let n = Charge_system.size sys in
  let mu = (Charge_system.model sys).Model.mu_minus in
  let rng = Random.State.make [| quicksim_seed config.seed k; k |] in
  let occ = Array.make n false in
  (* Sample 0 descends from the all-neutral configuration (pure greedy);
     the others start from random occupations for diversity. *)
  if k > 0 then
    for i = 0 to n - 1 do
      occ.(i) <- Random.State.bool rng
    done;
  let pot = ref (Charge_system.local_potentials sys occ) in
  let moves = ref 0 in
  let weights = Array.make (max n 1) 0. in
  let apply_toggle i =
    let row = Charge_system.interaction_row sys i in
    let p = !pot in
    if occ.(i) then begin
      occ.(i) <- false;
      for j = 0 to n - 1 do
        p.(j) <- p.(j) -. row.(j)
      done
    end
    else begin
      occ.(i) <- true;
      for j = 0 to n - 1 do
        p.(j) <- p.(j) +. row.(j)
      done
    end;
    incr moves
  in
  (* One population move: among the energy-lowering toggles pick one at
     random, weighted by |delta|^alpha (larger alpha = greedier).
     Returns false when the population is already stable. *)
  let population_move () =
    let p = !pot in
    let total = ref 0. in
    for i = 0 to n - 1 do
      let dv = mu +. p.(i) in
      let delta = if occ.(i) then -.dv else dv in
      let w = if delta < -.epsilon then Float.pow (-.delta) config.alpha else 0. in
      weights.(i) <- w;
      total := !total +. w
    done;
    if !total <= 0. then false
    else begin
      let u = Random.State.float rng !total in
      let pick = ref (-1) in
      let acc = ref 0. in
      for i = 0 to n - 1 do
        if weights.(i) > 0. then begin
          acc := !acc +. weights.(i);
          (* The last positive weight also catches float-rounding slop
             where the running sum lands a hair under [total]. *)
          if !pick < 0 && !acc >= u then pick := i
        end
      done;
      let i =
        if !pick >= 0 then !pick
        else begin
          let last = ref 0 in
          for i = 0 to n - 1 do
            if weights.(i) > 0. then last := i
          done;
          !last
        end
      in
      apply_toggle i;
      true
    end
  in
  (* One configuration move: the steepest energy-lowering single hop
     (lowest (src, dst) pair on exact ties).  Returns false when the
     configuration is already stable. *)
  let hop_move () =
    let p = !pot in
    let best = ref (-.epsilon) and bsrc = ref (-1) and bdst = ref (-1) in
    for i = 0 to n - 1 do
      if occ.(i) then begin
        (* [Charge_system.energy_delta_hop] with the source row and
           potential hoisted out of the destination scan. *)
        let row = Charge_system.interaction_row sys i and pi = p.(i) in
        for j = 0 to n - 1 do
          if not occ.(j) then begin
            let d = p.(j) -. pi -. row.(j) in
            if d < !best then begin
              best := d;
              bsrc := i;
              bdst := j
            end
          end
        done
      end
    done;
    if !bsrc < 0 then false
    else begin
      occ.(!bsrc) <- false;
      occ.(!bdst) <- true;
      Charge_system.apply_hop sys ~pot:!pot ~src:!bsrc ~dst:!bdst;
      incr moves;
      true
    end
  in
  let rec descend () =
    if !moves < config.iterations then
      if population_move () then descend ()
      else if hop_move () then descend ()
  in
  descend ();
  (* Re-derive the potentials from scratch and keep polishing until the
     state is a fixpoint of the fresh potentials too: this shields the
     physically-valid guarantee from float drift in the incremental
     updates. *)
  let rec settle budget =
    pot := Charge_system.local_potentials sys occ;
    if budget > 0 && !moves < config.iterations
       && (population_move () || hop_move ())
    then begin
      descend ();
      settle (budget - 1)
    end
  in
  settle 16;
  (occ, Charge_system.energy sys occ)

let quicksim_pool config ?jobs sys =
  let samples = max 1 config.samples in
  Parallel.Pool.map ?jobs samples (fun k -> quicksim_sample sys config k)

let quicksim ?(config = default_quicksim) ?jobs sys =
  let pool = quicksim_pool config ?jobs sys in
  let all = Array.to_list pool in
  let usable =
    (* A sample that exhausted its move budget mid-descent can sit at an
       unstable state; never let it masquerade as a ground state. *)
    match
      List.filter (fun (occ, _) -> Charge_system.physically_valid sys occ) all
    with
    | [] -> all (* every sample hit the cap: best-effort answer *)
    | valid -> valid
  in
  let best = List.fold_left (fun acc (_, e) -> Float.min acc e) infinity usable in
  (* Deterministic merge: scan in sample-index order, dedup, cap. *)
  let states = ref [] and count = ref 0 in
  List.iter
    (fun (occ, e) ->
      if
        Float.abs (e -. best) <= epsilon
        && !count < config.max_states
        && not (List.exists (fun s -> s = occ) !states)
      then begin
        states := occ :: !states;
        incr count
      end)
    usable;
  { energy = best; states = List.rev !states }

let quicksim_spectrum ?(config = default_quicksim) ?jobs sys =
  let pool = quicksim_pool config ?jobs sys in
  (* Dedup in sample-index order (first occurrence wins), then sort by
     energy; the stable sort keeps index order inside energy ties. *)
  let dedup = ref [] in
  Array.iter
    (fun (occ, e) ->
      if not (List.exists (fun (s, _) -> s = occ) !dedup) then
        dedup := (occ, e) :: !dedup)
    pool;
  List.stable_sort (fun (_, e1) (_, e2) -> compare e1 e2) (List.rev !dedup)

(* Low-energy spectrum: the branch and bound of [pruned] without the
   stability pruning (excited states need not be stable), keeping every
   configuration within [window] of the running optimum. *)
let spectrum ?(max_states = 4096) ~window sys =
  let n = Charge_system.size sys in
  if n = 0 then [ ([||], 0.) ]
  else begin
    let mu = (Charge_system.model sys).Model.mu_minus in
    let weight i =
      let acc = ref 0. in
      for j = 0 to n - 1 do
        if j <> i then acc := !acc +. Charge_system.interaction sys i j
      done;
      !acc
    in
    let order =
      List.sort (fun a b -> compare (weight b) (weight a))
        (List.init n (fun i -> i))
      |> Array.of_list
    in
    let occ = Array.make n false in
    let best = ref 0. in
    let collected = ref [ (Array.copy occ, 0.) ] in
    let v = Array.make n 0. in
    let zero_occ = Array.make n false in
    for i = 0 to n - 1 do
      v.(i) <- Charge_system.local_potential sys zero_occ i
    done;
    let rec explore depth current =
      if current < !best then best := current;
      if depth = n then begin
        if current > epsilon || Array.exists (fun b -> b) occ then
          collected := (Array.copy occ, current) :: !collected
      end
      else begin
        let bound = ref 0. in
        for d = depth to n - 1 do
          let i = order.(d) in
          let c = mu +. v.(i) in
          if c < 0. then bound := !bound +. c
        done;
        if current +. !bound <= !best +. window +. epsilon then begin
          let i = order.(depth) in
          let try_occupied () =
            let delta = mu +. v.(i) in
            occ.(i) <- true;
            for j = 0 to n - 1 do
              if j <> i then
                v.(j) <- v.(j) +. Charge_system.interaction sys i j
            done;
            explore (depth + 1) (current +. delta);
            for j = 0 to n - 1 do
              if j <> i then
                v.(j) <- v.(j) -. Charge_system.interaction sys i j
            done;
            occ.(i) <- false
          in
          if mu +. v.(i) < 0. then begin
            try_occupied ();
            explore (depth + 1) current
          end
          else begin
            explore (depth + 1) current;
            try_occupied ()
          end
        end
      end
    in
    explore 0 0.;
    (* The all-neutral configuration was seeded; the guard above avoided
       duplicating it at the leaves. *)
    let sorted =
      List.sort (fun (_, e1) (_, e2) -> compare e1 e2) !collected
    in
    let within =
      List.filter (fun (_, e) -> e <= !best +. window +. epsilon) sorted
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    take max_states within
  end
