type cut = { leaves : int array; table : Truth_table.t }

type enum_stats = {
  nodes : int;
  pairs : int;
  kept : int;
  sig_rejects : int;
}

type t = {
  network : Network.t;
  cuts : cut list array;
  stats : enum_stats;
}

let network t = t.network

(* {2 Configuration} *)

type config = {
  cut_size : int;
  cuts_per_node : int;
  priority : bool;
}

let default_config = { cut_size = 4; cuts_per_node = 12; priority = true }
let exhaustive_config = { default_config with priority = false }

(* {2 Shared helpers} *)

(* Sorted-array union; [None] when exceeding [k].  Pre-overhaul
   implementation, preserved verbatim for [exhaustive_config] (the
   priority path merges into a preallocated buffer instead, see
   [union_into]). *)
let union_leaves_legacy k a b =
  let la = Array.length a and lb = Array.length b in
  let result = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  (try
     while !i < la || !j < lb do
       let next =
         if !i >= la then begin
           let v = b.(!j) in
           incr j;
           v
         end
         else if !j >= lb then begin
           let v = a.(!i) in
           incr i;
           v
         end
         else if a.(!i) < b.(!j) then begin
           let v = a.(!i) in
           incr i;
           v
         end
         else if a.(!i) > b.(!j) then begin
           let v = b.(!j) in
           incr j;
           v
         end
         else begin
           let v = a.(!i) in
           incr i;
           incr j;
           v
         end
       in
       if !n >= k then raise Exit;
       result.(!n) <- next;
       incr n
     done;
     ()
   with Exit -> n := k + 1);
  if !n > k then None else Some (Array.sub result 0 !n)

(* Re-express [table] (over [leaves]) over the superset [union].
   Pre-overhaul implementation for [exhaustive_config]: per-leaf linear
   position search (O(k^2)) and one functional [set_bit] copy per set
   bit. *)
let lift_table_legacy table leaves union =
  let m = Array.length union in
  let positions =
    Array.map
      (fun leaf ->
        let rec find i = if union.(i) = leaf then i else find (i + 1) in
        find 0)
      leaves
  in
  let result = ref (Truth_table.create m) in
  for idx = 0 to (1 lsl m) - 1 do
    let sub = ref 0 in
    Array.iteri
      (fun v pos -> if (idx lsr pos) land 1 = 1 then sub := !sub lor (1 lsl v))
      positions;
    if Truth_table.get_bit table !sub then
      result := Truth_table.set_bit !result idx true
  done;
  !result

(* The overhauled lift: positions of all leaves in one joint pass over
   the two sorted arrays (the legacy per-leaf linear search was O(k^2)),
   result built in place via [Truth_table.of_fun] instead of one
   functional [set_bit] copy per bit. *)
let lift_table table leaves union =
  let nl = Array.length leaves in
  let positions = Array.make nl 0 in
  let j = ref 0 in
  for v = 0 to nl - 1 do
    while union.(!j) <> leaves.(v) do
      incr j
    done;
    positions.(v) <- !j
  done;
  Truth_table.of_fun (Array.length union) (fun idx ->
      let sub = ref 0 in
      for v = 0 to nl - 1 do
        if (idx lsr positions.(v)) land 1 = 1 then sub := !sub lor (1 lsl v)
      done;
      Truth_table.get_bit table !sub)

let is_subset a b =
  (* Both sorted ascending. *)
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i >= la then true
    else if j >= lb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

let filter_dominated cuts =
  List.filter
    (fun c ->
      not
        (List.exists
           (fun c' ->
             c != c'
             && Array.length c'.leaves < Array.length c.leaves
             && is_subset c'.leaves c.leaves)
           cuts))
    cuts

(* The function of a gate over a cut's leaves is unique, so the interned
   tables of identical cuts are physically equal whichever enumeration
   path produced them.  The baseline computes through the legacy lift
   (three intermediate tables per candidate); the result is interned at
   the end so both paths hand out the same physical table. *)
let gate_table_legacy ntk id union ca cb a b =
  let ta = lift_table_legacy ca.table ca.leaves union
  and tb = lift_table_legacy cb.table cb.leaves union in
  let ta = if Network.is_complemented a then Truth_table.lnot ta else ta
  and tb = if Network.is_complemented b then Truth_table.lnot tb else tb in
  let table =
    match Network.kind ntk id with
    | Network.And _ -> Truth_table.land_ ta tb
    | Network.Xor _ -> Truth_table.lxor_ ta tb
    | Network.Const | Network.Pi _ -> assert false
  in
  Truth_table.intern table

(* Generic tuned-path gate table (unions wider than a single word): two
   fast lifts, complements, op, one intern. *)
let gate_table ntk id union ca cb a b =
  let ta = lift_table ca.table ca.leaves union
  and tb = lift_table cb.table cb.leaves union in
  let ta = if Network.is_complemented a then Truth_table.lnot ta else ta
  and tb = if Network.is_complemented b then Truth_table.lnot tb else tb in
  let table =
    match Network.kind ntk id with
    | Network.And _ -> Truth_table.land_ ta tb
    | Network.Xor _ -> Truth_table.lxor_ ta tb
    | Network.Const | Network.Pi _ -> assert false
  in
  Truth_table.intern table

(* Leaf positions inside [union], packed 3 bits per leaf (positions are
   < 8 whenever the union has at most 5 leaves). *)
let pack_positions leaves union =
  let nl = Array.length leaves in
  let packed = ref 0 and j = ref 0 in
  for v = 0 to nl - 1 do
    while union.(!j) <> leaves.(v) do
      incr j
    done;
    packed := !packed lor (!j lsl (3 * v))
  done;
  !packed

(* Fused gate table for unions of at most 5 leaves (every Table-1
   workload at the default k = 4): both child lifts, complement flips
   and the gate op are evaluated per assignment on plain ints, with a
   single table allocation and one intern at the end. *)
let gate_table_fused ntk id union ca cb a b =
  let u = Array.length union in
  if
    u > 5
    || Truth_table.num_vars ca.table > 5
    || Truth_table.num_vars cb.table > 5
  then gate_table ntk id union ca cb a b
  else begin
    let pa = pack_positions ca.leaves union
    and pb = pack_positions cb.leaves union in
    let na = Array.length ca.leaves and nb = Array.length cb.leaves in
    let ba = Int64.to_int (Truth_table.to_bits ca.table)
    and bb = Int64.to_int (Truth_table.to_bits cb.table) in
    let fa = if Network.is_complemented a then 1 else 0
    and fb = if Network.is_complemented b then 1 else 0 in
    let is_xor =
      match Network.kind ntk id with
      | Network.Xor _ -> true
      | Network.And _ -> false
      | Network.Const | Network.Pi _ -> assert false
    in
    let r = ref 0 in
    for idx = 0 to (1 lsl u) - 1 do
      let sub_a = ref 0 and p = ref pa in
      for v = 0 to na - 1 do
        if (idx lsr (!p land 7)) land 1 = 1 then sub_a := !sub_a lor (1 lsl v);
        p := !p lsr 3
      done;
      let sub_b = ref 0 and q = ref pb in
      for v = 0 to nb - 1 do
        if (idx lsr (!q land 7)) land 1 = 1 then sub_b := !sub_b lor (1 lsl v);
        q := !q lsr 3
      done;
      let va = ((ba lsr !sub_a) land 1) lxor fa
      and vb = ((bb lsr !sub_b) land 1) lxor fb in
      let bit = if is_xor then va lxor vb else va land vb in
      if bit = 1 then r := !r lor (1 lsl idx)
    done;
    Truth_table.intern (Truth_table.of_bits u (Int64.of_int !r))
  end

let trivial_table = lazy (Truth_table.intern (Truth_table.var 1 0))
let const_table = lazy (Truth_table.intern (Truth_table.const0 0))

let trivial_cut id = { leaves = [| id |]; table = Lazy.force trivial_table }

(* {2 Exhaustive baseline}

   The pre-overhaul list-based enumeration, preserved verbatim behind
   [exhaustive_config]: full product merge per gate, hashtable
   deduplication, quadratic dominance filtering, then sort and truncate.
   The priority path below computes the same cut lists (asserted by the
   logic bench and fuzzed by [test/fuzz.exe -cuts]). *)

let enumerate_exhaustive cfg ntk =
  let k = cfg.cut_size and max_cuts = cfg.cuts_per_node in
  let n = Network.num_nodes ntk in
  let cuts = Array.make n [] in
  let pairs = ref 0 and kept = ref 0 in
  for id = 0 to n - 1 do
    let computed =
      match Network.kind ntk id with
      | Network.Const -> [ { leaves = [||]; table = Lazy.force const_table } ]
      | Network.Pi _ -> [ trivial_cut id ]
      | Network.And (a, b) | Network.Xor (a, b) ->
          let na = Network.node_of_signal a
          and nb = Network.node_of_signal b in
          let combine ca cb acc =
            incr pairs;
            match union_leaves_legacy k ca.leaves cb.leaves with
            | None -> acc
            | Some union ->
                {
                  leaves = union;
                  table = gate_table_legacy ntk id union ca cb a b;
                }
                :: acc
          in
          let merged =
            List.fold_left
              (fun acc ca ->
                List.fold_left (fun acc cb -> combine ca cb acc) acc
                  cuts.(nb))
              [] cuts.(na)
          in
          (* Deduplicate by leaves, drop dominated cuts, keep the best. *)
          let dedup =
            let seen = Hashtbl.create 16 in
            List.filter
              (fun c ->
                if Hashtbl.mem seen c.leaves then false
                else begin
                  Hashtbl.replace seen c.leaves ();
                  true
                end)
              merged
          in
          let kept_cuts =
            filter_dominated dedup
            |> List.sort (fun c1 c2 ->
                   compare (Array.length c1.leaves) (Array.length c2.leaves))
          in
          let rec take n = function
            | [] -> []
            | _ when n = 0 -> []
            | c :: rest -> c :: take (n - 1) rest
          in
          take (max_cuts - 1) kept_cuts @ [ trivial_cut id ]
    in
    kept := !kept + List.length computed;
    cuts.(id) <- computed
  done;
  {
    network = ntk;
    cuts;
    stats = { nodes = n; pairs = !pairs; kept = !kept; sig_rejects = 0 };
  }

(* {2 Priority cuts}

   Mockturtle-style bounded enumeration: per gate, candidate unions are
   merged into one preallocated buffer (no per-union allocation), a
   64-bit leaf signature filters dominance and duplicate checks before
   any array walk, and truth tables are computed only for the at most
   [cuts_per_node - 1] survivors instead of every candidate.

   To keep the mapped netlists bit-identical to the exhaustive baseline,
   the candidate stream is processed in the same logical order as the
   baseline's merged list (which is built by consing, i.e. reversed
   generation order), with the same first-occurrence deduplication,
   bidirectional strict-subset dominance, stable sort by leaf count, and
   truncation. *)

type scratch = {
  buf_leaves : int array; (* row-major, rows of width [cut_size] *)
  buf_len : int array;
  buf_sig : int64 array;
  buf_a : int array; (* index of the generating cut of fanin a *)
  buf_b : int array;
  buf_keep : bool array;
  buf_ord : int array;
}

let make_scratch cfg =
  let p = cfg.cuts_per_node * cfg.cuts_per_node in
  {
    buf_leaves = Array.make (max 1 (p * cfg.cut_size)) 0;
    buf_len = Array.make (max 1 p) 0;
    buf_sig = Array.make (max 1 p) 0L;
    buf_a = Array.make (max 1 p) 0;
    buf_b = Array.make (max 1 p) 0;
    buf_keep = Array.make (max 1 p) false;
    buf_ord = Array.make (max 1 p) 0;
  }

(* Merge sorted [a] and [b] into row [m] of the scratch buffer, bounded
   by [k] leaves; the 64-bit signature is accumulated in the same pass.
   Returns [false] on overflow.  Indices are bounded by the loop guards,
   so the row writes use unsafe accesses. *)
let union_into s m k a b =
  let la = Array.length a and lb = Array.length b in
  let off = m * k in
  let i = ref 0 and j = ref 0 and n = ref 0 in
  let sg = ref 0L in
  let overflow = ref false in
  while (not !overflow) && (!i < la || !j < lb) do
    let next =
      if !i >= la then begin
        let v = Array.unsafe_get b !j in
        incr j;
        v
      end
      else if !j >= lb then begin
        let v = Array.unsafe_get a !i in
        incr i;
        v
      end
      else
        let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
        if x < y then begin
          incr i;
          x
        end
        else if x > y then begin
          incr j;
          y
        end
        else begin
          incr i;
          incr j;
          x
        end
    in
    if !n >= k then overflow := true
    else begin
      Array.unsafe_set s.buf_leaves (off + !n) next;
      sg := Int64.logor !sg (Int64.shift_left 1L (next land 63));
      incr n
    end
  done;
  if !overflow then false
  else begin
    s.buf_len.(m) <- !n;
    s.buf_sig.(m) <- !sg;
    true
  end

let rows_equal s r r' k =
  s.buf_len.(r) = s.buf_len.(r')
  && s.buf_sig.(r) = s.buf_sig.(r')
  &&
  let base = r * k and base' = r' * k in
  let len = s.buf_len.(r) in
  let rec go i =
    i >= len
    || Array.unsafe_get s.buf_leaves (base + i)
       = Array.unsafe_get s.buf_leaves (base' + i)
       && go (i + 1)
  in
  go 0

(* Strict-subset test of row [r'] against row [r], both sorted. *)
let row_subset s r' r k =
  let la = s.buf_len.(r') and lb = s.buf_len.(r) in
  let base' = r' * k and base = r * k in
  let rec go i j =
    if i >= la then true
    else if j >= lb then false
    else
      let x = Array.unsafe_get s.buf_leaves (base' + i)
      and y = Array.unsafe_get s.buf_leaves (base + j) in
      if x = y then go (i + 1) (j + 1) else if x > y then go i (j + 1) else false
  in
  go 0 0

let enumerate_priority cfg ntk =
  let k = cfg.cut_size and max_cuts = cfg.cuts_per_node in
  let n = Network.num_nodes ntk in
  let cuts = Array.make n [] in
  let cuts_arr = Array.make n [||] in
  let s = make_scratch cfg in
  let pairs = ref 0 and kept_total = ref 0 and sig_rejects = ref 0 in
  for id = 0 to n - 1 do
    let computed =
      match Network.kind ntk id with
      | Network.Const -> [| { leaves = [||]; table = Lazy.force const_table } |]
      | Network.Pi _ -> [| trivial_cut id |]
      | Network.And (a, b) | Network.Xor (a, b) ->
          let ca_arr = cuts_arr.(Network.node_of_signal a)
          and cb_arr = cuts_arr.(Network.node_of_signal b) in
          (* Generate candidate unions into the scratch buffer.  Row [r]
             generated here is logical position [m - 1 - r] of the
             baseline's merged list. *)
          let m = ref 0 in
          for ia = 0 to Array.length ca_arr - 1 do
            for ib = 0 to Array.length cb_arr - 1 do
              incr pairs;
              if union_into s !m k ca_arr.(ia).leaves cb_arr.(ib).leaves
              then begin
                s.buf_a.(!m) <- ia;
                s.buf_b.(!m) <- ib;
                incr m
              end
            done
          done;
          let m = !m in
          (* First-occurrence deduplication in logical order: row [r] is
             a duplicate iff a higher row has the same leaves. *)
          for r = m - 1 downto 0 do
            let dup = ref false in
            let r' = ref (m - 1) in
            while (not !dup) && !r' > r do
              (* Signature and length mismatches reject without touching
                 the leaf arrays. *)
              if rows_equal s r !r' k then dup := true;
              decr r'
            done;
            s.buf_keep.(r) <- not !dup
          done;
          (* Dominance: a kept row dies when any other kept row is a
             strictly smaller subset of it (either direction in the
             logical order, exactly like the baseline's global filter). *)
          let alive = ref 0 in
          for r = m - 1 downto 0 do
            if s.buf_keep.(r) then begin
              let dominated = ref false in
              let r' = ref (m - 1) in
              while (not !dominated) && !r' >= 0 do
                if
                  !r' <> r
                  && s.buf_keep.(!r')
                  && s.buf_len.(!r') < s.buf_len.(r)
                then
                  if
                    Int64.logand s.buf_sig.(!r') s.buf_sig.(r)
                    <> s.buf_sig.(!r')
                  then incr sig_rejects
                  else if row_subset s !r' r k then dominated := true;
                decr r'
              done;
              if !dominated then s.buf_keep.(r) <- false
              else begin
                s.buf_ord.(!alive) <- r;
                incr alive
              end
            end
          done;
          (* [buf_ord] holds the survivors in logical order; stable
             insertion sort by leaf count reproduces the baseline's
             sort-then-truncate. *)
          let alive = !alive in
          for i = 1 to alive - 1 do
            let r = s.buf_ord.(i) in
            let j = ref i in
            while !j > 0 && s.buf_len.(s.buf_ord.(!j - 1)) > s.buf_len.(r) do
              s.buf_ord.(!j) <- s.buf_ord.(!j - 1);
              decr j
            done;
            s.buf_ord.(!j) <- r
          done;
          let chosen = min alive (max_cuts - 1) in
          (* Truth tables only for the survivors. *)
          Array.init (chosen + 1) (fun i ->
              if i = chosen then trivial_cut id
              else begin
                let r = s.buf_ord.(i) in
                let union = Array.sub s.buf_leaves (r * k) s.buf_len.(r) in
                let ca = ca_arr.(s.buf_a.(r)) and cb = cb_arr.(s.buf_b.(r)) in
                {
                  leaves = union;
                  table = gate_table_fused ntk id union ca cb a b;
                }
              end)
    in
    kept_total := !kept_total + Array.length computed;
    cuts_arr.(id) <- computed;
    cuts.(id) <- Array.to_list computed
  done;
  {
    network = ntk;
    cuts;
    stats =
      {
        nodes = n;
        pairs = !pairs;
        kept = !kept_total;
        sig_rejects = !sig_rejects;
      };
  }

let enumerate ?(config = default_config) ?k ?max_cuts ntk =
  let cfg =
    match k with Some k -> { config with cut_size = k } | None -> config
  in
  let cfg =
    match max_cuts with
    | Some c -> { cfg with cuts_per_node = c }
    | None -> cfg
  in
  if cfg.priority then enumerate_priority cfg ntk
  else enumerate_exhaustive cfg ntk

let cuts_of t id = t.cuts.(id)

let stats t = t.stats

let pp_stats ppf s =
  Format.fprintf ppf
    "nodes=%d pairs=%d cuts=%d sig-rejects=%d" s.nodes s.pairs s.kept
    s.sig_rejects

let cut_volume ntk _root cut =
  let in_leaves id = Array.exists (( = ) id) cut.leaves in
  let visited = Hashtbl.create 16 in
  let rec count id =
    if Hashtbl.mem visited id || in_leaves id then 0
    else begin
      Hashtbl.replace visited id ();
      match Network.kind ntk id with
      | Network.Const | Network.Pi _ -> 0
      | Network.And (a, b) | Network.Xor (a, b) ->
          1
          + count (Network.node_of_signal a)
          + count (Network.node_of_signal b)
    end
  in
  count _root

let mffc_size ntk fanout_counts root =
  let counts = Array.copy fanout_counts in
  let rec deref id =
    match Network.kind ntk id with
    | Network.Const | Network.Pi _ -> 0
    | Network.And (a, b) | Network.Xor (a, b) ->
        let size = ref 1 in
        List.iter
          (fun s ->
            let f = Network.node_of_signal s in
            counts.(f) <- counts.(f) - 1;
            if counts.(f) = 0 then size := !size + deref f)
          [ a; b ];
        !size
  in
  deref root

let pp_cut ppf c =
  Format.fprintf ppf "{%a : %s}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list c.leaves)
    (Truth_table.to_hex c.table)
