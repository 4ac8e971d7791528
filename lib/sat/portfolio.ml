(* Round-raced solver portfolio over a Simplify-preprocessed instance.

   Determinism argument (pinned by test/test_portfolio.ml at several
   --jobs counts): let D be the set of members that reach a definitive
   verdict within the current round's conflict slice when run to the
   slice's end.  Only definitive members publish to the winner cell, so
   every published index is in D; the cell keeps the minimum; and a
   member is cancelled only when the cell holds a *strictly lower*
   index, so min(D) itself can never be cancelled — it always runs its
   full slice and publishes.  The final cell value is therefore exactly
   min(D), whatever the schedule, and the returned (verdict, model,
   proof) come from that member's deterministic serial run.  Losing
   members' post-cancellation states are schedule-dependent but are
   never read. *)

let env_k () =
  match Sys.getenv_opt "FICTIONETTE_SAT_PORTFOLIO" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> Some k
      | _ -> None)

let override = ref None

let set_default_k k =
  if k < 1 then invalid_arg "Portfolio.set_default_k: width must be >= 1"
  else override := Some k

let default_k () =
  match !override with
  | Some k -> k
  | None -> ( match env_k () with Some k -> k | None -> 1)

(* Member 0 is the plain tuned solver — the portfolio at k=1 is the
   baseline configuration plus preprocessing.  Further members diversify
   restart pacing, database reduction and the branching seed. *)
let member_config i =
  let d = Solver.default_config in
  match i with
  | 0 -> d
  | 1 -> { d with seed = 1; restart_base = 512 }
  | 2 -> { d with seed = 2; restart_base = 32; reduce_slack = 500 }
  | _ ->
      let bases = [| 100; 512; 32; 200 |] in
      { d with seed = i; restart_base = bases.(i mod 4) }

let config_name i =
  match i with
  | 0 -> "tuned"
  | 1 -> "tuned-r512-s1"
  | 2 -> "tuned-r32-agile-s2"
  | _ -> Printf.sprintf "tuned-r%d-s%d" [| 100; 512; 32; 200 |].(i mod 4) i

type t = {
  p_nvars : int;
  p_k : int;
  members : Solver.t array;
  simp : Simplify.result;
  refuted_by_simplify : bool;
  mutable round : int;  (* persists across solve calls for resume *)
  mutable last : Solver.result;
  mutable last_winner : int option;
  mutable last_model : bool array option;
}

(* Luby sequence 1 1 2 1 1 2 4 ... (0-indexed), as in Solver. *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let create ?(k = default_k ()) ?(certify = false) ~nvars clauses =
  if k < 1 then invalid_arg "Portfolio.create: k must be >= 1";
  let simp = Simplify.run ~nvars clauses in
  let refuted = List.mem [] simp.Simplify.clauses in
  let members =
    Array.init k (fun i ->
        let s = Solver.create ~config:(member_config i) () in
        if certify then Solver.enable_proof s;
        for _ = 1 to nvars do
          ignore (Solver.new_var s)
        done;
        if not refuted then
          List.iter (fun c -> Solver.add_clause s c) simp.Simplify.clauses;
        s)
  in
  {
    p_nvars = nvars;
    p_k = k;
    members;
    simp;
    refuted_by_simplify = refuted;
    round = 0;
    last = Solver.Unknown Budget.Conflicts;
    last_winner = None;
    last_model = None;
  }

let base_slice = 3000

let solve ?(budget = Budget.unlimited) t =
  (if t.refuted_by_simplify then begin
     t.last <- Solver.Unsat;
     t.last_winner <- None;
     t.last_model <- None
   end
   else begin
    let winner_cell = Atomic.make max_int in
    let winner_verdict = ref Solver.Unsat in
    (* Per-member conflict spend this call, against the external
       allowance (interpreted per member, as for a single solver). *)
    let spent = ref 0 in
    let finished = ref None in
    while !finished = None do
      match Budget.check budget with
      | Some r -> finished := Some (Solver.Unknown r)
      | None ->
          let allowance =
            match budget.Budget.conflicts with
            | None -> None
            | Some c -> Some (c - !spent)
          in
          if allowance <> None && Option.get allowance <= 0 then
            finished := Some (Solver.Unknown Budget.Conflicts)
          else begin
            t.round <- t.round + 1;
            let slice =
              let s = base_slice * luby t.round in
              match allowance with None -> s | Some a -> min s a
            in
            spent := !spent + slice;
            let results =
              Parallel.Pool.map t.p_k (fun i ->
                  if Atomic.get winner_cell < i then Solver.Unknown Budget.Cancelled
                  else begin
                    let cancelled () =
                      Atomic.get winner_cell < i || budget.Budget.cancelled ()
                    in
                    let b =
                      { budget with Budget.conflicts = Some slice; cancelled }
                    in
                    let r = Solver.solve ~budget:b t.members.(i) in
                    (match r with
                    | Solver.Sat | Solver.Unsat ->
                        let rec claim () =
                          let cur = Atomic.get winner_cell in
                          if cur > i then
                            if not (Atomic.compare_and_set winner_cell cur i)
                            then claim ()
                        in
                        claim ()
                    | Solver.Unknown _ -> ());
                    r
                  end)
            in
            let w = Atomic.get winner_cell in
            if w < max_int then begin
              (match results.(w) with
              | Solver.Sat | Solver.Unsat ->
                  winner_verdict := results.(w)
              | Solver.Unknown _ -> assert false);
              t.last_winner <- Some w;
              finished := Some !winner_verdict
            end
            else begin
              (* No verdict this round; surface a tripped deadline or
                 external cancellation (all members saw the same one). *)
              let ext =
                Array.fold_left
                  (fun acc r ->
                    match (acc, r) with
                    | Some _, _ -> acc
                    | None, Solver.Unknown Budget.Deadline ->
                        Some (Solver.Unknown Budget.Deadline)
                    | None, _ -> None)
                  None results
              in
              match ext with
              | Some u -> finished := Some u
              | None ->
                  if budget.Budget.cancelled () then
                    finished := Some (Solver.Unknown Budget.Cancelled)
            end
          end
    done;
     (match !finished with Some r -> t.last <- r | None -> assert false);
     match t.last, t.last_winner with
     | Solver.Sat, Some w ->
         t.last_model <-
           Some (t.simp.Simplify.reconstruct (Solver.model t.members.(w)))
     | _ -> t.last_model <- None
   end);
  t.last

let model t =
  match t.last_model with
  | Some m -> Array.copy m
  | None -> invalid_arg "Portfolio.model: last solve was not Sat"

let value t l =
  match t.last_model with
  | Some m ->
      let v = abs l in
      if v < 1 || v > t.p_nvars then invalid_arg "Portfolio.value"
      else
        let x = m.(v - 1) in
        if l > 0 then x else not x
  | None -> invalid_arg "Portfolio.value: last solve was not Sat"

let proof t =
  let tail =
    match t.last_winner with
    | Some w -> Solver.proof t.members.(w)
    | None -> []
  in
  t.simp.Simplify.proof @ tail

let winner t = t.last_winner
let k t = t.p_k
let num_vars t = t.p_nvars
let counters t = t.simp.Simplify.counters

let stats t =
  let base =
    Array.fold_left
      (fun acc s -> Solver.add_stats acc (Solver.stats s))
      Solver.empty_stats t.members
  in
  let c = t.simp.Simplify.counters in
  {
    base with
    Solver.simplify_subsumed = c.Simplify.subsumed;
    simplify_strengthened = c.Simplify.strengthened;
    simplify_eliminated = c.Simplify.eliminated_vars;
    simplify_vivified = c.Simplify.vivified;
  }

let member_solver t i =
  if i < 0 || i >= t.p_k then invalid_arg "Portfolio.member_solver"
  else t.members.(i)
