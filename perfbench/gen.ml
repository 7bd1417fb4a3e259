(* Seeded MATLAB programs for the compile-large workload.

   Every program is a straight-line function of four 1x64 double
   vectors. Its statements come in blocks of eight with a fixed mix, so
   two seeds give programs of the same size and shape whose compile
   costs differ only by operand choice:

   - 5 elementwise vector statements ([+], [-], [.*], scalar and
     constant broadcast, real/imag of a complex vector);
   - 1 counted MAC-reduction loop into a fresh scalar;
   - 2 complex elementwise multiplies.

   Operands prefer values no later statement has read yet, and the
   result sums every value still unread at the end, so dead-code
   elimination cannot shrink a program below its statement count. *)

let n = 64
let params = [ "x1"; "x2"; "x3"; "x4" ]

let arg_types =
  List.map (fun _ -> Masc_sema.Mtype.row_vector Masc_sema.Mtype.Double n) params

type kind = Real | Cplx | Scalar

type state = {
  rng : Random.State.t;
  buf : Buffer.t;
  mutable vars : (string * kind) list;  (* every defined value *)
  mutable unread : (string * kind) list;  (* defined, not read since *)
  mutable next : int;
}

let pick st l = List.nth l (Random.State.int st.rng (List.length l))

(* An operand of [kind]: an unread one two times in three when any
   exists, else any defined value of that kind. *)
let use st kind =
  let of_kind l = List.filter (fun (_, k) -> k = kind) l in
  let fresh = of_kind st.unread in
  let name, _ =
    if fresh <> [] && Random.State.int st.rng 3 > 0 then pick st fresh
    else pick st (of_kind st.vars)
  in
  st.unread <- List.filter (fun (v, _) -> v <> name) st.unread;
  name

let has st kind = List.exists (fun (_, k) -> k = kind) st.vars

let define st kind =
  let prefix = match kind with Real -> "v" | Cplx -> "z" | Scalar -> "s" in
  let name = Printf.sprintf "%s%d" prefix st.next in
  st.next <- st.next + 1;
  (name, kind)

let bind st (name, kind) =
  st.vars <- (name, kind) :: st.vars;
  st.unread <- (name, kind) :: st.unread

let line st fmt = Printf.ksprintf (fun s -> Buffer.add_string st.buf s) fmt

let elementwise st =
  let ((v, _) as d) = define st Real in
  let r () = use st Real in
  (match Random.State.int st.rng 7 with
  | 0 -> line st "%s = %s + %s;\n" v (r ()) (r ())
  | 1 -> line st "%s = %s - %s;\n" v (r ()) (r ())
  | 2 -> line st "%s = %s .* %s;\n" v (r ()) (r ())
  | 3 -> line st "%s = %s .* %s + %s;\n" v (r ()) (r ()) (r ())
  | 4 ->
    line st "%s = %s * %.3f - %s;\n" v (r ())
      (0.25 +. Random.State.float st.rng 0.5)
      (r ())
  | 5 when has st Scalar ->
    let s = use st Scalar in
    line st "%s = %s + %s * 0.01;\n" v (r ()) s
  | _ when has st Cplx ->
    let z = use st Cplx in
    if Random.State.bool st.rng then line st "%s = real(%s) + %s;\n" v z (r ())
    else line st "%s = imag(%s) .* %s;\n" v z (r ())
  | _ -> line st "%s = %s + %s;\n" v (r ()) (r ()));
  bind st d

let mac st =
  let ((s, _) as d) = define st Scalar in
  let a = use st Real in
  let b = use st Real in
  line st "%s = 0;\nfor i = 1:%d\n  %s = %s + %s(i) * %s(i);\nend\n" s n s s a b;
  bind st d

let cmul st =
  let ((z, _) as d) = define st Cplx in
  let pair () =
    let a = use st Real in
    let b = use st Real in
    Printf.sprintf "complex(%s, %s)" a b
  in
  let operand () =
    if has st Cplx && Random.State.bool st.rng then use st Cplx else pair ()
  in
  let a = operand () in
  let b = operand () in
  line st "%s = %s .* %s;\n" z a b;
  bind st d

let block = [ `E; `E; `E; `E; `E; `M; `C; `C ]

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [program ~seed ~index ~statements] is the source of a function named
   [entry ~index]; [statements] is a multiple of 8. *)
let entry ~index = Printf.sprintf "gen%03d" index

let program ~seed ~index ~statements =
  let st =
    {
      rng = Random.State.make [| seed; index; statements |];
      buf = Buffer.create (statements * 40);
      vars = List.map (fun p -> (p, Real)) params;
      unread = List.map (fun p -> (p, Real)) params;
      next = 1;
    }
  in
  line st "function y = %s(%s)\n" (entry ~index) (String.concat ", " params);
  for _ = 1 to statements / List.length block do
    List.iter
      (function `E -> elementwise st | `M -> mac st | `C -> cmul st)
      (shuffle st.rng block)
  done;
  let term (v, kind) =
    match kind with
    | Real -> v
    | Cplx -> Printf.sprintf "real(%s)" v
    | Scalar -> Printf.sprintf "%s * 0.01" v
  in
  let live = List.rev st.unread in
  let live =
    if List.exists (fun (_, k) -> k <> Scalar) live then live
    else (fst (List.hd st.vars), Real) :: live
  in
  line st "y = %s;\nend\n" (String.concat " + " (List.map term live));
  Buffer.contents st.buf

(* The pool a seed draws: sizes 32/64/128/256 in proportion 4:3:2:1. *)
let sizes = [ (32, 16); (64, 12); (128, 8); (256, 4) ]

let pool ~seed =
  let index = ref 0 in
  List.concat_map
    (fun (statements, count) ->
      List.init count (fun _ ->
          let i = !index in
          incr index;
          (entry ~index:i, statements, program ~seed ~index:i ~statements)))
    sizes
