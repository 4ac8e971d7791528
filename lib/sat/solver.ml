(* CDCL solver in the MiniSat tradition, with a Glucose-style clause
   database and CaDiCaL-style binary-clause specialization.

   Internal literal encoding: variable indices are 0-based; literal
   [2 * v] is the positive and [2 * v + 1] the negative literal of
   variable [v].  The external (DIMACS) interface converts at the
   boundary.

   Reason encoding (per variable):
     [>= 0]   id of the clause that implied the variable
     [-1]     decision / unit / no reason
     [<= -3]  binary implication; the other (false) literal of the
              binary clause is [-3 - reason]
   A conflict reported by [propagate] is [-1] (none), a clause id
   [>= 0], or [-2] for a conflicting binary clause whose two literals
   are stashed in [bconf]. *)

type lit = int
type result = Sat | Unsat | Unknown of Budget.reason

type config = {
  binary_specialization : bool;
      (* Keep 2-literal clauses in per-literal implication lists instead
         of the clause arena. *)
  restart_base : int;
      (* Conflicts per Luby restart unit; the historical value is 100. *)
  reduce_slack : int;
      (* Extra learned clauses tolerated beyond 2x the problem size
         before reduce_db fires; the historical value is 2000. *)
  seed : int;
      (* 0: no perturbation.  Nonzero: deterministic per-variable
         epsilon on the initial VSIDS activities and a hashed initial
         phase, so portfolio members explore different branching orders
         without affecting completeness (epsilons are far below one
         activity bump and only break ties among never-bumped vars). *)
}

let default_config =
  {
    binary_specialization = true;
    restart_base = 100;
    reduce_slack = 2000;
    seed = 0;
  }

(* Deterministic avalanche-style hash of (seed, var), platform-stable on
   63-bit ints: used only to derive tie-breaking epsilons and phases. *)
let seed_mix seed v =
  let x = ((seed * 0x9E3779B1) + (v * 0x85EBCA77)) land 0x3FFFFFFF in
  let x = (x lxor (x lsr 13)) * 0xC2B2AE35 land 0x3FFFFFFF in
  x lxor (x lsr 11)

(* Growable int vector. *)
module Ivec = struct
  type t = { mutable data : int array; mutable size : int }

  let create () = { data = Array.make 16 0; size = 0 }

  let push v x =
    if v.size >= Array.length v.data then begin
      let bigger = Array.make (2 * Array.length v.data) 0 in
      Array.blit v.data 0 bigger 0 v.size;
      v.data <- bigger
    end;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let size v = v.size
  let shrink v n = v.size <- n
end

type clause = {
  mutable lits : int array;
  learned : bool;
  mutable activity : float;
  mutable deleted : bool;
  mutable glue : int;  (* LBD at learn time, lowered when re-derived *)
}

let lbd_hist_bins = 16

type t = {
  config : config;
  (* Clause arena; ids index into this vector. *)
  mutable clauses : clause array;
  mutable clause_count : int;
  mutable problem_clauses : int;
  mutable learned_clauses : int;
  mutable learned_bin : int;  (* live learned binaries (immortal) *)
  mutable bin_count : int;  (* binary clauses held in [bins] *)
  (* Per-literal watch lists of (clause id, blocking literal) pairs,
     flattened: slot 2i holds the id, slot 2i+1 the blocker. *)
  mutable watches : Ivec.t array;
  (* Per-literal binary implication lists: [bins.(p)] holds every
     literal [q] with a binary clause [(¬p ∨ q)] — when [p] becomes
     true, [q] is implied. *)
  mutable bins : Ivec.t array;
  (* Per-variable state. *)
  mutable assign : int array;  (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array;  (* see the reason encoding above *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable seen : bool array;
  mutable heap_pos : int array;  (* position in heap or -1 *)
  mutable nvars : int;
  (* Trail. *)
  trail : Ivec.t;
  trail_lim : Ivec.t;
  mutable qhead : int;
  (* VSIDS. *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  (* Search state. *)
  mutable unsat : bool;
  mutable ok_model : bool;
  mutable model_arr : bool array;
  (* Scratch for conflicting / reason binary clauses. *)
  bconf : int array;
  btmp : int array;
  (* Level stamps for LBD computation. *)
  mutable lvl_stamp : int array;
  mutable stamp : int;
  (* Active limits for the current [solve] call: absolute conflict
     threshold, deadline on the budget's clock, cancellation flag. *)
  mutable limit_conflicts : int option;
  mutable deadline : float option;
  mutable clock : unit -> float;
  mutable cancelled : unit -> bool;
  (* Statistics. *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable bin_propagations : int;
  mutable restarts : int;
  mutable deleted_total : int;
  mutable reductions : int;
  mutable watch_scans : int;
  mutable lbd_sum : int;
  mutable lbd_count : int;
  hist : int array;  (* per-solve LBD histogram, reset by [solve] *)
  mutable solve_time : float;
  (* Proof logging: steps in reverse order when enabled. *)
  mutable proof : Drat.step list option;
}

let var_decay = 1. /. 0.95
let cla_decay = 1. /. 0.999

let create ?(config = default_config) () =
  {
    config;
    clauses =
      Array.make 64
        { lits = [||]; learned = false; activity = 0.; deleted = true; glue = 0 };
    clause_count = 0;
    problem_clauses = 0;
    learned_clauses = 0;
    learned_bin = 0;
    bin_count = 0;
    watches = Array.make 16 (Ivec.create ());
    bins = Array.make 16 (Ivec.create ());
    assign = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.;
    phase = Array.make 8 false;
    seen = Array.make 8 false;
    heap_pos = Array.make 8 (-1);
    nvars = 0;
    trail = Ivec.create ();
    trail_lim = Ivec.create ();
    qhead = 0;
    heap = Array.make 8 0;
    heap_size = 0;
    var_inc = 1.;
    cla_inc = 1.;
    unsat = false;
    ok_model = false;
    model_arr = [||];
    bconf = Array.make 2 0;
    btmp = Array.make 2 0;
    lvl_stamp = Array.make 8 0;
    stamp = 0;
    limit_conflicts = None;
    deadline = None;
    clock = Unix.gettimeofday;
    cancelled = (fun () -> false);
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    bin_propagations = 0;
    restarts = 0;
    deleted_total = 0;
    reductions = 0;
    watch_scans = 0;
    lbd_sum = 0;
    lbd_count = 0;
    hist = Array.make lbd_hist_bins 0;
    solve_time = 0.;
    proof = None;
  }

let config s = s.config

(* --- variable heap ordered by activity (max-heap) ------------------- *)

let heap_less s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(a) <- j;
  s.heap_pos.(b) <- i

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_size >= Array.length s.heap then begin
      let bigger = Array.make (2 * Array.length s.heap) 0 in
      Array.blit s.heap 0 bigger 0 s.heap_size;
      s.heap <- bigger
    end;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let top = s.heap.(0) in
  s.heap_pos.(top) <- -1;
  s.heap_size <- s.heap_size - 1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  top

let heap_decrease s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* --- state growth ---------------------------------------------------- *)

let grow_int_array arr n default =
  let bigger = Array.make n default in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let grow_float_array arr n =
  let bigger = Array.make n 0. in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let grow_bool_array arr n =
  let bigger = Array.make n false in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  if v >= Array.length s.assign then begin
    let n = 2 * Array.length s.assign in
    s.assign <- grow_int_array s.assign n (-1);
    s.level <- grow_int_array s.level n 0;
    s.reason <- grow_int_array s.reason n (-1);
    s.activity <- grow_float_array s.activity n;
    s.phase <- grow_bool_array s.phase n;
    s.seen <- grow_bool_array s.seen n;
    s.heap_pos <- grow_int_array s.heap_pos n (-1)
  end;
  s.assign.(v) <- -1;
  s.level.(v) <- 0;
  s.reason.(v) <- -1;
  s.activity.(v) <- 0.;
  s.phase.(v) <- false;
  if s.config.seed <> 0 then begin
    let h = seed_mix s.config.seed v in
    s.activity.(v) <- float_of_int (h land 0xFFFF) *. 1e-9;
    s.phase.(v) <- h land 0x10000 <> 0
  end;
  s.seen.(v) <- false;
  s.heap_pos.(v) <- -1;
  if 2 * (v + 1) > Array.length s.watches then begin
    let n = max 16 (4 * (v + 1)) in
    let grow old =
      Array.init n (fun i ->
          if i < Array.length old then old.(i) else Ivec.create ())
    in
    s.watches <- grow s.watches;
    s.bins <- grow s.bins
  end;
  (* The freshly shared Ivec from Array.make in [create] must be replaced
     by distinct vectors. *)
  s.watches.(2 * v) <- Ivec.create ();
  s.watches.((2 * v) + 1) <- Ivec.create ();
  s.bins.(2 * v) <- Ivec.create ();
  s.bins.((2 * v) + 1) <- Ivec.create ();
  heap_insert s v;
  v + 1

let num_vars s = s.nvars
let num_clauses s = s.problem_clauses
let num_binary_clauses s = s.bin_count

(* --- literal helpers -------------------------------------------------- *)

let lit_of_dimacs s l =
  if l = 0 then invalid_arg "Solver: literal 0";
  let v = abs l - 1 in
  if v >= s.nvars then
    invalid_arg (Printf.sprintf "Solver: unallocated variable %d" (abs l));
  (2 * v) + (if l < 0 then 1 else 0)

let lit_var l = l lsr 1
let lit_neg l = l lxor 1

(* Value of an internal literal: -1 unassigned, 0 false, 1 true. *)
let lit_value s l =
  let a = s.assign.(lit_var l) in
  if a < 0 then -1 else a lxor (l land 1)

(* --- proof logging ----------------------------------------------------- *)

let dimacs_of_lit l =
  let v = (l lsr 1) + 1 in
  if l land 1 = 1 then -v else v

let enable_proof s = if s.proof = None then s.proof <- Some []
let proof_enabled s = s.proof <> None

let proof s =
  match s.proof with None -> [] | Some steps -> List.rev steps

let log_add s lits =
  match s.proof with
  | None -> ()
  | Some steps ->
      s.proof <-
        Some (Drat.Add (List.map dimacs_of_lit (Array.to_list lits)) :: steps)

let log_delete s lits =
  match s.proof with
  | None -> ()
  | Some steps ->
      s.proof <-
        Some
          (Drat.Delete (List.map dimacs_of_lit (Array.to_list lits)) :: steps)

(* --- activity --------------------------------------------------------- *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_decrease s v

let var_decay_activity s = s.var_inc <- s.var_inc *. var_decay

let cla_bump s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    for i = 0 to s.clause_count - 1 do
      let cl = s.clauses.(i) in
      if cl.learned then cl.activity <- cl.activity *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay_activity s = s.cla_inc <- s.cla_inc *. cla_decay

(* --- LBD ("glue") ------------------------------------------------------ *)

let ensure_stamp s lvl =
  if lvl >= Array.length s.lvl_stamp then
    s.lvl_stamp <-
      grow_int_array s.lvl_stamp (max (2 * Array.length s.lvl_stamp) (lvl + 1)) 0

(* Number of distinct non-root decision levels among [lits]. *)
let compute_glue s lits =
  s.stamp <- s.stamp + 1;
  let g = ref 0 in
  Array.iter
    (fun l ->
      let lvl = s.level.(lit_var l) in
      if lvl > 0 then begin
        ensure_stamp s lvl;
        if s.lvl_stamp.(lvl) <> s.stamp then begin
          s.lvl_stamp.(lvl) <- s.stamp;
          incr g
        end
      end)
    lits;
  max 1 !g

let note_glue s glue =
  s.lbd_sum <- s.lbd_sum + glue;
  s.lbd_count <- s.lbd_count + 1;
  let bin = if glue >= lbd_hist_bins then lbd_hist_bins - 1 else glue in
  s.hist.(bin) <- s.hist.(bin) + 1

(* --- clause arena ------------------------------------------------------ *)

let alloc_clause s lits learned =
  if s.clause_count >= Array.length s.clauses then begin
    let bigger =
      Array.make (2 * Array.length s.clauses)
        { lits = [||]; learned = false; activity = 0.; deleted = true; glue = 0 }
    in
    Array.blit s.clauses 0 bigger 0 s.clause_count;
    s.clauses <- bigger
  end;
  let id = s.clause_count in
  s.clauses.(id) <- { lits; learned; activity = 0.; deleted = false; glue = 0 };
  s.clause_count <- id + 1;
  if learned then s.learned_clauses <- s.learned_clauses + 1;
  id

let watch_clause s id =
  let c = s.clauses.(id) in
  let w0 = s.watches.(lit_neg c.lits.(0)) in
  Ivec.push w0 id;
  Ivec.push w0 c.lits.(1);
  let w1 = s.watches.(lit_neg c.lits.(1)) in
  Ivec.push w1 id;
  Ivec.push w1 c.lits.(0)

(* Register a binary clause [(a ∨ b)] in the implication lists. *)
let add_bin s a b =
  Ivec.push s.bins.(lit_neg a) b;
  Ivec.push s.bins.(lit_neg b) a;
  s.bin_count <- s.bin_count + 1

(* --- assignment -------------------------------------------------------- *)

let decision_level s = Ivec.size s.trail_lim

let enqueue s l reason =
  let v = lit_var l in
  s.assign.(v) <- 1 - (l land 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- l land 1 = 0;
  Ivec.push s.trail l

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Ivec.get s.trail_lim lvl in
    for i = Ivec.size s.trail - 1 downto bound do
      let v = lit_var (Ivec.get s.trail i) in
      s.assign.(v) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    Ivec.shrink s.trail bound;
    Ivec.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* --- propagation -------------------------------------------------------- *)

(* Returns the id of a conflicting clause, -2 for a binary conflict
   (literals in [bconf]), or -1 for no conflict. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < Ivec.size s.trail do
    let p = Ivec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* Binary implications of p first: no clause memory touched. *)
    let bl = s.bins.(p) in
    let nb = Ivec.size bl in
    let j = ref 0 in
    while !conflict = -1 && !j < nb do
      let q = Ivec.get bl !j in
      incr j;
      match lit_value s q with
      | 1 -> ()
      | 0 ->
          s.bconf.(0) <- q;
          s.bconf.(1) <- lit_neg p;
          conflict := -2;
          s.qhead <- Ivec.size s.trail
      | _ ->
          s.bin_propagations <- s.bin_propagations + 1;
          enqueue s q ((-3) - lit_neg p)
    done;
    if !conflict = -1 then begin
      (* Clauses watching ¬p must be inspected. *)
      let ws = s.watches.(p) in
      let n = Ivec.size ws in
      let keep = ref 0 in
      let i = ref 0 in
      while !i < n do
        let id = Ivec.get ws !i in
        let blocker = Ivec.get ws (!i + 1) in
        i := !i + 2;
        if lit_value s blocker = 1 then begin
          (* Satisfied via the cached blocker: keep, don't dereference. *)
          Ivec.set ws !keep id;
          Ivec.set ws (!keep + 1) blocker;
          keep := !keep + 2
        end
        else begin
          let c = s.clauses.(id) in
          if c.deleted then () (* drop from the list *)
          else begin
            let false_lit = lit_neg p in
            if c.lits.(0) = false_lit then begin
              c.lits.(0) <- c.lits.(1);
              c.lits.(1) <- false_lit
            end;
            if lit_value s c.lits.(0) = 1 then begin
              (* Clause satisfied; keep the watch, refresh the blocker. *)
              Ivec.set ws !keep id;
              Ivec.set ws (!keep + 1) c.lits.(0);
              keep := !keep + 2
            end
            else begin
              (* Look for a new literal to watch. *)
              let len = Array.length c.lits in
              let found = ref false in
              let k = ref 2 in
              while (not !found) && !k < len do
                if lit_value s c.lits.(!k) <> 0 then begin
                  c.lits.(1) <- c.lits.(!k);
                  c.lits.(!k) <- false_lit;
                  let w = s.watches.(lit_neg c.lits.(1)) in
                  Ivec.push w id;
                  Ivec.push w c.lits.(0);
                  found := true
                end;
                incr k
              done;
              if not !found then begin
                (* Unit or conflicting. *)
                Ivec.set ws !keep id;
                Ivec.set ws (!keep + 1) c.lits.(0);
                keep := !keep + 2;
                if lit_value s c.lits.(0) = 0 then begin
                  conflict := id;
                  (* Copy the remaining watcher pairs back. *)
                  while !i < n do
                    Ivec.set ws !keep (Ivec.get ws !i);
                    incr keep;
                    incr i
                  done;
                  s.qhead <- Ivec.size s.trail
                end
                else enqueue s c.lits.(0) id
              end
            end
          end
        end
      done;
      Ivec.shrink ws !keep
    end
  done;
  !conflict

(* --- conflict analysis --------------------------------------------------- *)

(* Returns (learned clause as array with asserting literal first,
   backtrack level). *)
let analyze s conflict_id =
  let learned = Ivec.create () in
  Ivec.push learned 0 (* placeholder for the asserting literal *);
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref conflict_id in
  let index = ref (Ivec.size s.trail - 1) in
  let continue = ref true in
  while !continue do
    let lits =
      if !confl >= 0 then begin
        let c = s.clauses.(!confl) in
        if c.learned then begin
          cla_bump s c;
          (* Re-derived clauses can have become "better": refresh glue. *)
          if c.glue > 2 then begin
            let g = compute_glue s c.lits in
            if g < c.glue then c.glue <- g
          end
        end;
        c.lits
      end
      else if !confl = -2 then s.bconf
      else begin
        (* Binary reason for the implied literal !p. *)
        s.btmp.(0) <- !p;
        s.btmp.(1) <- (-3) - !confl;
        s.btmp
      end
    in
    let start = if !p < 0 then 0 else 1 in
    for j = start to Array.length lits - 1 do
      let q = lits.(j) in
      let v = lit_var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr counter
        else Ivec.push learned q
      end
    done;
    (* Select the next literal to resolve on: most recent seen on trail. *)
    while not s.seen.(lit_var (Ivec.get s.trail !index)) do
      decr index
    done;
    p := Ivec.get s.trail !index;
    decr index;
    let v = lit_var !p in
    s.seen.(v) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else begin
      confl := s.reason.(v);
      (* The resolved variable always has a reason while counter > 0. *)
      assert (!confl <> -1)
    end
  done;
  Ivec.set learned 0 (lit_neg !p);
  (* Cheap non-recursive minimization: a literal is redundant when its
     reason clause exists and all other reason literals are already in
     the learned clause (seen) or at level 0. *)
  let redundant q =
    let v = lit_var q in
    let r = s.reason.(v) in
    if r >= 0 then
      Array.for_all
        (fun l ->
          let w = lit_var l in
          w = v || s.seen.(w) || s.level.(w) = 0)
        s.clauses.(r).lits
    else if r <= -3 then begin
      let w = lit_var ((-3) - r) in
      s.seen.(w) || s.level.(w) = 0
    end
    else false
  in
  (* Mark learned literals as seen for the redundancy test. *)
  for i = 0 to Ivec.size learned - 1 do
    s.seen.(lit_var (Ivec.get learned i)) <- true
  done;
  let result = Ivec.create () in
  Ivec.push result (Ivec.get learned 0);
  for i = 1 to Ivec.size learned - 1 do
    let q = Ivec.get learned i in
    if not (redundant q) then Ivec.push result q
  done;
  for i = 0 to Ivec.size learned - 1 do
    s.seen.(lit_var (Ivec.get learned i)) <- false
  done;
  (* Backtrack level: the highest level among the non-asserting
     literals; the second watched position must hold a literal of that
     level. *)
  let bt = ref 0 in
  let pos = ref 1 in
  for i = 1 to Ivec.size result - 1 do
    let lv = s.level.(lit_var (Ivec.get result i)) in
    if lv > !bt then begin
      bt := lv;
      pos := i
    end
  done;
  let arr = Array.init (Ivec.size result) (Ivec.get result) in
  if Array.length arr > 1 then begin
    let tmp = arr.(1) in
    arr.(1) <- arr.(!pos);
    arr.(!pos) <- tmp
  end;
  (arr, !bt)

(* --- learned clause database reduction ------------------------------------ *)

(* Filter deleted clause ids out of every watch list without
   reallocating or re-pushing anything; counts scanned entries so the
   cost of database maintenance shows up in [stats]. *)
let compact_watches s =
  Array.iter
    (fun ws ->
      let n = Ivec.size ws in
      let keep = ref 0 in
      let i = ref 0 in
      while !i < n do
        let id = Ivec.get ws !i in
        s.watch_scans <- s.watch_scans + 1;
        if not s.clauses.(id).deleted then begin
          Ivec.set ws !keep id;
          Ivec.set ws (!keep + 1) (Ivec.get ws (!i + 1));
          keep := !keep + 2
        end;
        i := !i + 2
      done;
      Ivec.shrink ws !keep)
    s.watches

let locked s id =
  let c = s.clauses.(id) in
  Array.length c.lits > 0
  &&
  let v = lit_var c.lits.(0) in
  s.assign.(v) >= 0 && s.reason.(v) = id

(* Delete half of the deletable learned clauses.  Called at decision
   level 0 only.  Clauses with glue <= 2 are immortal and the worst half
   by (glue, then activity) goes; watch lists are compacted in place. *)
let reduce_db s =
  s.reductions <- s.reductions + 1;
  let cand = ref [] in
  for id = 0 to s.clause_count - 1 do
    let c = s.clauses.(id) in
    if c.learned && (not c.deleted) && Array.length c.lits > 2
       && c.glue > 2 && not (locked s id)
    then cand := (c.glue, c.activity, id) :: !cand
  done;
  (* Worst first: highest glue, ties broken by lowest activity. *)
  let worst_first =
    List.sort
      (fun (g1, a1, _) (g2, a2, _) ->
        if g1 <> g2 then compare g2 g1 else compare a1 a2)
      !cand
  in
  let to_delete = List.length worst_first / 2 in
  let deleted = ref 0 in
  List.iteri
    (fun i (_, _, id) ->
      if i < to_delete then begin
        s.clauses.(id).deleted <- true;
        s.learned_clauses <- s.learned_clauses - 1;
        s.deleted_total <- s.deleted_total + 1;
        log_delete s s.clauses.(id).lits;
        incr deleted
      end)
    worst_first;
  if !deleted > 0 then compact_watches s

(* --- adding clauses --------------------------------------------------------- *)

let add_clause s dimacs_lits =
  assert (decision_level s = 0);
  s.ok_model <- false;
  s.problem_clauses <- s.problem_clauses + 1;
  if not s.unsat then begin
    let lits = List.map (lit_of_dimacs s) dimacs_lits in
    (* Sort, deduplicate, and detect tautologies / falsified literals. *)
    let sorted = List.sort_uniq compare lits in
    let tautology =
      let rec check = function
        | a :: (b :: _ as rest) -> (a lxor b = 1 && a lsr 1 = b lsr 1) || check rest
        | _ -> false
      in
      check sorted
    in
    if not tautology then begin
      let remaining =
        List.filter (fun l -> lit_value s l <> 0) sorted
      in
      if List.exists (fun l -> lit_value s l = 1) remaining then ()
      else
        match remaining with
        | [] ->
            s.unsat <- true;
            log_add s [||]
        | [ l ] ->
            enqueue s l (-1);
            if propagate s <> -1 then begin
              s.unsat <- true;
              log_add s [||]
            end
        | [ a; b ] when s.config.binary_specialization -> add_bin s a b
        | _ ->
            let arr = Array.of_list remaining in
            let id = alloc_clause s arr false in
            watch_clause s id
    end
  end

(* --- search ------------------------------------------------------------------ *)

(* Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (0-indexed). *)
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

let record_learned s arr =
  log_add s arr;
  let glue = compute_glue s arr in
  note_glue s glue;
  if Array.length arr = 1 then begin
    cancel_until s 0;
    enqueue s arr.(0) (-1)
  end
  else if Array.length arr = 2 && s.config.binary_specialization then begin
    (* Learned binaries live only in the implication lists; they are
       immortal, so the DRAT log never needs a delete for them. *)
    add_bin s arr.(0) arr.(1);
    s.learned_clauses <- s.learned_clauses + 1;
    s.learned_bin <- s.learned_bin + 1;
    enqueue s arr.(0) ((-3) - arr.(1))
  end
  else begin
    let id = alloc_clause s arr true in
    s.clauses.(id).glue <- glue;
    watch_clause s id;
    enqueue s arr.(0) id
  end

let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then -1
    else
      let v = heap_pop s in
      if s.assign.(v) < 0 then v else go ()
  in
  go ()

type search_outcome =
  | Sat_found
  | Unsat_found
  | Restarted
  | Interrupted of Budget.reason

exception Found of search_outcome

(* Budget checkpoints.  The conflict allowance is exact; the wall clock
   and the cancellation flag are polled every [checkpoint_mask + 1]
   conflicts or decisions to keep the hot loop cheap. *)
let checkpoint_mask = 31

let interrupt_reason s =
  if s.cancelled () then Some Budget.Cancelled
  else
    match s.deadline with
    | Some d when s.clock () > d -> Some Budget.Deadline
    | Some _ | None -> None

let check_interrupt s counter =
  if counter land checkpoint_mask = 0 then
    match interrupt_reason s with
    | Some r ->
        cancel_until s 0;
        raise (Found (Interrupted r))
    | None -> ()

let search s assumptions max_conflicts =
  let conflicts_here = ref 0 in
  try
    while true do
      let confl = propagate s in
      if confl <> -1 then begin
        s.conflicts <- s.conflicts + 1;
        incr conflicts_here;
        (match s.limit_conflicts with
        | Some b when s.conflicts > b ->
            cancel_until s 0;
            raise (Found (Interrupted Budget.Conflicts))
        | Some _ | None -> ());
        check_interrupt s s.conflicts;
        if decision_level s = 0 then begin
          (* A root-level conflict refutes the formula itself (assumptions
             live at levels >= 1), so the proof can be closed.  The flag is
             load-bearing for incremental use: the conflict left the root
             trail only partially propagated (qhead has already passed the
             falsified clause), so without it a later solve could accept
             that inconsistent root state as a model. *)
          s.unsat <- true;
          log_add s [||];
          raise (Found Unsat_found)
        end;
        let learned, bt = analyze s confl in
        cancel_until s bt;
        record_learned s learned;
        var_decay_activity s;
        cla_decay_activity s
      end
      else if !conflicts_here >= max_conflicts then begin
        s.restarts <- s.restarts + 1;
        cancel_until s 0;
        raise (Found Restarted)
      end
      else if decision_level s < List.length assumptions then begin
        (* Apply the next pending assumption as a decision. *)
        let l = List.nth assumptions (decision_level s) in
        match lit_value s l with
        | 1 ->
            (* Already satisfied: open an empty decision level so the
               indexing of assumptions by level stays aligned. *)
            Ivec.push s.trail_lim (Ivec.size s.trail)
        | 0 -> raise (Found Unsat_found)
        | _ ->
            Ivec.push s.trail_lim (Ivec.size s.trail);
            enqueue s l (-1)
      end
      else begin
        let v = pick_branch_var s in
        if v < 0 then raise (Found Sat_found)
        else begin
          s.decisions <- s.decisions + 1;
          check_interrupt s s.decisions;
          Ivec.push s.trail_lim (Ivec.size s.trail);
          let l = (2 * v) + (if s.phase.(v) then 0 else 1) in
          enqueue s l (-1)
        end
      end
    done;
    assert false
  with Found r -> r

let solve ?(assumptions = []) ?(budget = Budget.unlimited) s =
  if s.unsat then Unsat
  else begin
    let assumptions = List.map (lit_of_dimacs s) assumptions in
    cancel_until s 0;
    s.ok_model <- false;
    (* The LBD histogram describes the current solve only. *)
    Array.fill s.hist 0 lbd_hist_bins 0;
    let t0 = Unix.gettimeofday () in
    (* Install the budget: the conflict allowance is relative to this
       call, so an [Unknown] solve can be resumed with a fresh (larger)
       allowance while keeping all learned clauses. *)
    s.limit_conflicts <-
      Option.map (fun n -> s.conflicts + n) budget.Budget.conflicts;
    s.deadline <- budget.Budget.deadline;
    s.clock <- budget.Budget.clock;
    s.cancelled <- budget.Budget.cancelled;
    let result = ref None in
    let round = ref 0 in
    (match interrupt_reason s with
    | Some r -> result := Some (Unknown r)
    | None -> ());
    (try
       while !result = None do
         let max_conflicts = s.config.restart_base * luby !round in
         incr round;
         (match search s assumptions max_conflicts with
         | Sat_found ->
             (* Snapshot the model before undoing the trail. *)
             s.model_arr <- Array.init s.nvars (fun v -> s.assign.(v) = 1);
             s.ok_model <- true;
             result := Some Sat
         | Unsat_found -> result := Some Unsat
         | Restarted -> ()
         | Interrupted r -> result := Some (Unknown r));
         if
           !result = None
           && s.learned_clauses - s.learned_bin
              > (2 * s.problem_clauses) + s.config.reduce_slack
         then reduce_db s
       done
     with e ->
       cancel_until s 0;
       s.solve_time <- s.solve_time +. (Unix.gettimeofday () -. t0);
       raise e);
    cancel_until s 0;
    s.limit_conflicts <- None;
    s.deadline <- None;
    s.clock <- Unix.gettimeofday;
    s.cancelled <- (fun () -> false);
    s.solve_time <- s.solve_time +. (Unix.gettimeofday () -. t0);
    match !result with Some r -> r | None -> assert false
  end

let value s l =
  if not s.ok_model then invalid_arg "Solver.value: no model available";
  let v = abs l - 1 in
  if l = 0 || v >= Array.length s.model_arr then
    invalid_arg "Solver.value: unknown variable";
  if l > 0 then s.model_arr.(v) else not s.model_arr.(v)

let model s = Array.init s.nvars (fun v -> value s (v + 1))

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  binary_propagations : int;
  restarts : int;
  learned_clauses : int;
  learned_binaries : int;
  deleted_clauses : int;
  reductions : int;
  watch_compaction_scans : int;
  lbd_hist : int array;
  lbd_sum : int;
  lbd_count : int;
  solve_time_s : float;
  simplify_subsumed : int;
  simplify_strengthened : int;
  simplify_eliminated : int;
  simplify_vivified : int;
}

let stats (s : t) =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    binary_propagations = s.bin_propagations;
    restarts = s.restarts;
    learned_clauses = s.learned_clauses;
    learned_binaries = s.learned_bin;
    deleted_clauses = s.deleted_total;
    reductions = s.reductions;
    watch_compaction_scans = s.watch_scans;
    lbd_hist = Array.copy s.hist;
    lbd_sum = s.lbd_sum;
    lbd_count = s.lbd_count;
    solve_time_s = s.solve_time;
    simplify_subsumed = 0;
    simplify_strengthened = 0;
    simplify_eliminated = 0;
    simplify_vivified = 0;
  }

let empty_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    binary_propagations = 0;
    restarts = 0;
    learned_clauses = 0;
    learned_binaries = 0;
    deleted_clauses = 0;
    reductions = 0;
    watch_compaction_scans = 0;
    lbd_hist = Array.make lbd_hist_bins 0;
    lbd_sum = 0;
    lbd_count = 0;
    solve_time_s = 0.;
    simplify_subsumed = 0;
    simplify_strengthened = 0;
    simplify_eliminated = 0;
    simplify_vivified = 0;
  }

let add_stats a b =
  {
    conflicts = a.conflicts + b.conflicts;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    binary_propagations = a.binary_propagations + b.binary_propagations;
    restarts = a.restarts + b.restarts;
    learned_clauses = a.learned_clauses + b.learned_clauses;
    learned_binaries = a.learned_binaries + b.learned_binaries;
    deleted_clauses = a.deleted_clauses + b.deleted_clauses;
    reductions = a.reductions + b.reductions;
    watch_compaction_scans = a.watch_compaction_scans + b.watch_compaction_scans;
    lbd_hist = Array.init lbd_hist_bins (fun i -> a.lbd_hist.(i) + b.lbd_hist.(i));
    lbd_sum = a.lbd_sum + b.lbd_sum;
    lbd_count = a.lbd_count + b.lbd_count;
    solve_time_s = a.solve_time_s +. b.solve_time_s;
    simplify_subsumed = a.simplify_subsumed + b.simplify_subsumed;
    simplify_strengthened = a.simplify_strengthened + b.simplify_strengthened;
    simplify_eliminated = a.simplify_eliminated + b.simplify_eliminated;
    simplify_vivified = a.simplify_vivified + b.simplify_vivified;
  }

let mean_lbd st =
  if st.lbd_count = 0 then 0.
  else float_of_int st.lbd_sum /. float_of_int st.lbd_count

let propagations_per_sec st =
  if st.solve_time_s <= 0. then 0.
  else float_of_int (st.propagations + st.binary_propagations) /. st.solve_time_s

let pp_stats ppf st =
  Format.fprintf ppf
    "conflicts=%d decisions=%d propagations=%d binprops=%d props_per_s=%.0f \
     restarts=%d learned=%d binaries=%d deleted=%d reductions=%d \
     compaction_scans=%d mean_lbd=%.2f simplify=%d/%d/%d/%d"
    st.conflicts st.decisions st.propagations st.binary_propagations
    (propagations_per_sec st) st.restarts st.learned_clauses
    st.learned_binaries st.deleted_clauses st.reductions
    st.watch_compaction_scans (mean_lbd st) st.simplify_subsumed
    st.simplify_strengthened st.simplify_eliminated st.simplify_vivified
