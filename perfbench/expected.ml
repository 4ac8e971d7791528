(* Committed reference outputs under perfbench/expected/: whitespace-
   separated rows, '#' starts a comment.  Paths are relative to the
   checkout root, the benchmark's working directory. *)

let rows file =
  let path = Filename.concat "perfbench/expected" file in
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match
          List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))
        with
        | [] -> read acc
        | fields -> read (fields :: acc))
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read [])

let bad file row =
  failwith
    (Printf.sprintf "perfbench/expected/%s: malformed row %S" file
       (String.concat " " row))

type circuit = {
  area : int;  (** tiles, as in EXPERIMENTS.md Table 1 *)
  sidbs : int;  (** from the Logic.Benchmarks network *)
  verilog_sidbs : int;  (** from the circuit's Verilog text *)
  table1_sidbs : int;  (** as printed in EXPERIMENTS.md Table 1 *)
}

let table1 () =
  List.map
    (function
      | [ name; area; sidbs; verilog_sidbs; table1_sidbs ] ->
          ( name,
            {
              area = int_of_string area;
              sidbs = int_of_string sidbs;
              verilog_sidbs = int_of_string verilog_sidbs;
              table1_sidbs = int_of_string table1_sidbs;
            } )
      | row -> bad "table1.txt" row)
    (rows "table1.txt")

(* gate -> operational points of the 32x32 grid sweep. *)
let gates () =
  List.map
    (function
      | [ gate; points ] -> (gate, int_of_string points)
      | row -> bad "gates.txt" row)
    (rows "gates.txt")

(* (circuit, input bits) -> best whole-layout ground-state energy, eV. *)
let energies () =
  List.map
    (function
      | [ circuit; bits; energy ] -> ((circuit, bits), float_of_string energy)
      | row -> bad "energies.txt" row)
    (rows "energies.txt")

let find what table key =
  match List.assoc_opt key table with
  | Some v -> v
  | None -> failwith ("perfbench/expected: no reference for " ^ what)
