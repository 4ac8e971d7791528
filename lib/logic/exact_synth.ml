type step = { op : int; fanin1 : int; fanin2 : int }

type chain = {
  arity : int;
  steps : step array;
  output : int;  (* operand index; -1 denotes constant 0 *)
  output_complement : bool;
}

let chain_size c = Array.length c.steps

(* Gate semantics: 3 bits [c1 c2 c3], computing
   c1(!a b) xor c2(a !b) xor c3(a b); the three summands are disjoint so
   xor coincides with or. *)

(* A single XAG node (with complemented edges) realizing each feasible
   op.  Vacuous ops (0, a, b) are excluded by the encoding. *)
let build_op ntk op a b =
  match op with
  | 0b001 -> Network.and_ ntk a b
  | 0b010 -> Network.and_ ntk a (Network.not_ b)
  | 0b100 -> Network.and_ ntk (Network.not_ a) b
  | 0b110 -> Network.xor_ ntk a b
  | 0b111 -> Network.or_ ntk a b
  | _ -> invalid_arg (Printf.sprintf "Exact_synth.build_op: op %d" op)

let instantiate c ntk leaves =
  if Array.length leaves <> c.arity then
    invalid_arg "Exact_synth.instantiate: wrong leaf count";
  let signals = Array.make (c.arity + Array.length c.steps) Network.const0 in
  Array.blit leaves 0 signals 0 c.arity;
  Array.iteri
    (fun i s ->
      signals.(c.arity + i) <-
        build_op ntk s.op signals.(s.fanin1) signals.(s.fanin2))
    c.steps;
  let out = if c.output < 0 then Network.const0 else signals.(c.output) in
  if c.output_complement then Network.not_ out else out

let chain_table c =
  let n = c.arity in
  let values = Array.make (n + Array.length c.steps) (Truth_table.const0 n) in
  for i = 0 to n - 1 do
    values.(i) <- Truth_table.var n i
  done;
  Array.iteri
    (fun i s ->
      let a = values.(s.fanin1) and b = values.(s.fanin2) in
      let term c tt = if c then tt else Truth_table.const0 n in
      let t1 =
        term (s.op land 4 <> 0) (Truth_table.land_ (Truth_table.lnot a) b)
      and t2 =
        term (s.op land 2 <> 0) (Truth_table.land_ a (Truth_table.lnot b))
      and t3 = term (s.op land 1 <> 0) (Truth_table.land_ a b) in
      values.(n + i) <- Truth_table.lxor_ (Truth_table.lxor_ t1 t2) t3)
    c.steps;
  let out =
    if c.output < 0 then Truth_table.const0 n else values.(c.output)
  in
  if c.output_complement then Truth_table.lnot out else out

(* --- the SAT encoding -------------------------------------------------- *)

(* Attempt synthesis with exactly [r] gates for a normal function [g]
   (g(0,...,0) = 0). *)
let try_size g r =
  let n = Truth_table.num_vars g in
  let rows = (1 lsl n) - 1 in
  (* The synthesized chain is read off the SAT *model*, and among
     equally-sized chains the one found depends on the solver's search
     order, so downstream results (NPN rewriting, hence every Table-1
     netlist and layout) are keyed to this configuration.  Binaries stay
     in the clause arena: on these tiny instances binary specialization
     made building the NPN database about three times slower. *)
  let f =
    Sat.Cnf.create
      ~config:{ Sat.Solver.default_config with binary_specialization = false }
      ()
  in
  (* Gate output values per row (row t, 1-based over rows 1..2^n-1). *)
  let x = Array.init r (fun _ -> Sat.Cnf.fresh_many f rows) in
  (* Op bits: c.(i) = [| c1; c2; c3 |]. *)
  let c = Array.init r (fun _ -> Sat.Cnf.fresh_many f 3) in
  (* Selection variables per gate: one per operand pair (j, k), j < k. *)
  let pairs i =
    let avail = n + i in
    let acc = ref [] in
    for j = 0 to avail - 1 do
      for k = j + 1 to avail - 1 do
        acc := (j, k) :: !acc
      done
    done;
    List.rev !acc
  in
  let sel =
    Array.init r (fun i ->
        List.map (fun (j, k) -> ((j, k), Sat.Cnf.fresh f)) (pairs i))
  in
  (* Exactly one operand pair per gate. *)
  Array.iter
    (fun sl ->
      (* Commander is the historical encoding (see the config pin above):
         a different encoding would steer the model — and the chain — the
         search extracts. *)
      Sat.Cnf.exactly_one ~encoding:Sat.Cnf.Commander f (List.map snd sl))
    sel;
  (* Forbid vacuous gate functions: 000 (const), 011 (= a), 101 (= b). *)
  Array.iter
    (fun ci ->
      Sat.Cnf.add_clause f [ ci.(0); ci.(1); ci.(2) ];
      Sat.Cnf.add_clause f [ ci.(0); -ci.(1); -ci.(2) ];
      Sat.Cnf.add_clause f [ -ci.(0); ci.(1); -ci.(2) ])
    c;
  (* Operand value at row [t] (1-based): either a known constant (inputs)
     or a gate output literal. *)
  let operand_value j t =
    if j < n then `Const ((t lsr j) land 1 = 1)
    else `Lit x.(j - n).(t - 1)
  in
  (* Gate semantics under each selection. *)
  for i = 0 to r - 1 do
    List.iter
      (fun ((j, k), s) ->
        for t = 1 to rows do
          let a = operand_value j t and b = operand_value k t in
          (* For each input pattern (alpha, beta), the premise
             s & (a = alpha) & (b = beta) forces x = f(alpha, beta). *)
          List.iter
            (fun (alpha, beta, fval) ->
              let premise = ref [ -s ] in
              let feasible = ref true in
              (match a with
              | `Const v -> if v <> alpha then feasible := false
              | `Lit l -> premise := (if alpha then -l else l) :: !premise);
              (match b with
              | `Const v -> if v <> beta then feasible := false
              | `Lit l -> premise := (if beta then -l else l) :: !premise);
              if !feasible then begin
                let xl = x.(i).(t - 1) in
                match fval with
                | `False -> Sat.Cnf.add_clause f (-xl :: !premise)
                | `Var cv ->
                    Sat.Cnf.add_clause f (-xl :: cv :: !premise);
                    Sat.Cnf.add_clause f (xl :: -cv :: !premise)
              end)
            [
              (false, false, `False);
              (false, true, `Var c.(i).(0));
              (true, false, `Var c.(i).(1));
              (true, true, `Var c.(i).(2));
            ]
        done)
      sel.(i)
  done;
  (* Every gate but the last must feed a later gate. *)
  for i = 0 to r - 2 do
    let users =
      List.concat
        (List.init (r - 1 - i) (fun d ->
             let i' = i + 1 + d in
             List.filter_map
               (fun ((j, k), s) ->
                 if j = n + i || k = n + i then Some s else None)
               sel.(i')))
    in
    Sat.Cnf.add_clause f users
  done;
  (* The last gate computes the target. *)
  for t = 1 to rows do
    let lit = x.(r - 1).(t - 1) in
    Sat.Cnf.add_clause f [ (if Truth_table.get_bit g t then lit else -lit) ]
  done;
  let solver = Sat.Cnf.solver f in
  match Sat.Solver.solve solver with
  (* Unbudgeted solve: [Unknown] cannot occur, but treat it like a
     refutation (try the next circuit size) rather than crash. *)
  | Sat.Solver.Unsat | Sat.Solver.Unknown _ -> None
  | Sat.Solver.Sat ->
      let steps =
        Array.init r (fun i ->
            let (j, k), _ =
              List.find (fun (_, s) -> Sat.Solver.value solver s) sel.(i)
            in
            let bit b = if Sat.Solver.value solver c.(i).(b) then 1 else 0 in
            let op = (bit 0 lsl 2) lor (bit 1 lsl 1) lor bit 2 in
            { op; fanin1 = j; fanin2 = k })
      in
      Some steps

let synthesize ?(max_gates = 8) g =
  let n = Truth_table.num_vars g in
  if n > 4 then invalid_arg "Exact_synth.synthesize: arity > 4";
  (* Normalize to a normal function (value 0 on the all-zero input). *)
  let negate = Truth_table.get_bit g 0 in
  let g0 = if negate then Truth_table.lnot g else g in
  if Truth_table.is_const0 g0 then
    Some { arity = n; steps = [||]; output = -1; output_complement = negate }
  else
    (* Projection? *)
    let projection =
      let rec find i =
        if i >= n then None
        else if Truth_table.equal g0 (Truth_table.var n i) then Some i
        else find (i + 1)
      in
      find 0
    in
    match projection with
    | Some i ->
        Some
          { arity = n; steps = [||]; output = i; output_complement = negate }
    | None ->
        let rec try_sizes r =
          if r > max_gates then None
          else
            match try_size g0 r with
            | Some steps ->
                Some
                  {
                    arity = n;
                    steps;
                    output = n + r - 1;
                    output_complement = negate;
                  }
            | None -> try_sizes (r + 1)
        in
        try_sizes 1
