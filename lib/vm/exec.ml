(* Shared execution substrate for the two simulator back ends: the
   legacy tree-walking interpreter (Interp.run_tree) and the
   closure-threaded plan executor (Plan). Everything here is
   back-end-agnostic: result/argument types, control-flow exceptions,
   guardrail traps, the entry check, and disp/fprintf formatting. *)

module Mir = Masc_mir.Mir
module V = Value

type xvalue = Xscalar of Value.scalar | Xarray of Value.scalar array

type result = {
  rets : xvalue list;
  cycles : int;
  dyn_instrs : int;
  histogram : (string * int) list;
  output : string;
}

exception Runtime_error of string
exception Break_exc
exception Continue_exc
exception Return_exc

(* ---------------- guardrail traps ----------------

   Structured, bounded failure instead of hangs or raw exceptions: the
   fuel budget bounds dynamic instructions (so an unbounded [while]
   terminates), the cycle limit bounds modeled time, and the allocation
   cap bounds the static array footprint. Both back ends charge
   identically (pinned by the differential test), so a trap fires at the
   same execution point in either. *)

type trap_kind =
  | Fuel_exhausted of { fuel : int }
  | Cycle_limit of { max_cycles : int }
  | Alloc_limit of { requested_bytes : int; cap_bytes : int }

exception Trap of { kind : trap_kind; loc : string; steps_executed : int }

let default_fuel = 1_000_000_000
let default_max_alloc_bytes = 268_435_456 (* 256 MiB *)

(* The fuel machinery is also where cooperative cancellation hooks into
   a running simulation: both engines test the request deadline
   (Masc_fault.Cancel) every [guard_mask]+1 dynamic instructions —
   frequent enough to bound the overshoot to microseconds, rare enough
   that the armed cost disappears into the per-instruction work. The
   mask is shared so the two engines cancel at the same step. *)
let guard_mask = 1023

let trap_kind_name = function
  | Fuel_exhausted _ -> "fuel"
  | Cycle_limit _ -> "cycle_limit"
  | Alloc_limit _ -> "alloc_limit"

(* Every trap funnels through here so the flight recorder sees it with
   the raising request's context; a trap fires at most once per run, so
   the journal emission never touches the per-instruction hot path. *)
let raise_trap ~kind ~loc ~steps_executed =
  Masc_obs.Journal.emit "trap.raised"
    ~detail:
      [ ("trap", trap_kind_name kind); ("loc", loc);
        ("steps", string_of_int steps_executed) ];
  raise (Trap { kind; loc; steps_executed })

let trap_message ~kind ~loc ~steps_executed =
  match kind with
  | Fuel_exhausted { fuel } ->
    Printf.sprintf
      "%s: fuel exhausted after %d steps (budget %d); possible runaway loop"
      loc steps_executed fuel
  | Cycle_limit { max_cycles } ->
    Printf.sprintf
      "%s: cycle budget exceeded (%d) after %d steps; possible runaway loop"
      loc max_cycles steps_executed
  | Alloc_limit { requested_bytes; cap_bytes } ->
    Printf.sprintf
      "%s: array allocation of %d bytes exceeds the %d-byte cap" loc
      requested_bytes cap_bytes

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* The entry check: [Verify.check] plus the rules the verifier cannot
   decide alone, an intrinsic's operands and result lanes, which the
   target's descriptor kind fixes. An intrinsic the target lacks stays
   a run-time error. Every plan is built from its witness, so from MIR
   whose typed slots can only ever hold their declared representation,
   and every engine refuses the same MIR with the same message. *)
type checked = { func : Mir.func; isa : Masc_asip.Isa.t }

let check_entry ~(isa : Masc_asip.Isa.t) (f : Mir.func) =
  let module Isa = Masc_asip.Isa in
  let module Verify = Masc_mir.Verify in
  let intrin name : Verify.intrin_shape =
    match Isa.find_named isa name with
    | None -> Absent
    | Some desc -> (
      match desc.Isa.kind with
      | Ksimd_add | Ksimd_sub | Ksimd_mul | Ksimd_div | Ksimd_min | Ksimd_max
        ->
        Lanewise 2
      | Kmac -> Lanewise 3
      | Kreduce_add | Kreduce_min | Kreduce_max -> Reduce
      | Kcmul | Kcadd -> Scalars 2
      | Kcmac -> Scalars 3
      | Kload | Kstore | Kbroadcast -> Memory)
  in
  Masc_obs.Journal.span ~cat:"stage" "verify" (fun () -> Verify.check ~intrin f);
  { func = f; isa }

(* The lane operator of a reduction and of a reduce or SIMD intrinsic
   kind, which both engines apply lane by lane. *)
let vreduce_op = function
  | Mir.Vsum -> Mir.Badd
  | Mir.Vprod -> Mir.Bmul
  | Mir.Vmin -> Mir.Bmin
  | Mir.Vmax -> Mir.Bmax

let reduce_kind_op = function
  | Masc_asip.Isa.Kreduce_add -> Some Mir.Badd
  | Kreduce_min -> Some Mir.Bmin
  | Kreduce_max -> Some Mir.Bmax
  | _ -> None

let simd_kind_op = function
  | Masc_asip.Isa.Ksimd_add -> Some Mir.Badd
  | Ksimd_sub -> Some Mir.Bsub
  | Ksimd_mul -> Some Mir.Bmul
  | Ksimd_div -> Some Mir.Bdiv
  | Ksimd_min -> Some Mir.Bmin
  | Ksimd_max -> Some Mir.Bmax
  | _ -> None

(* Static array footprint of a function, in bytes, using the C layout
   the simulator banks model (complex 16, double/int 8, bool 1). *)
let array_bytes_of_func (f : Mir.func) =
  let elem_bytes (sty : Mir.scalar_ty) =
    if sty.Mir.cplx = Masc_sema.Mtype.Complex then 16
    else
      match sty.Mir.base with
      | Masc_sema.Mtype.Double | Masc_sema.Mtype.Int | Masc_sema.Mtype.Err -> 8
      | Masc_sema.Mtype.Bool -> 1
  in
  let bytes = ref 0 in
  Mir.iter_vars
    (fun (v : Mir.var) ->
      match v.Mir.vty with
      | Mir.Tscalar _ -> ()
      | Mir.Tarray (sty, n) -> bytes := !bytes + (n * elem_bytes sty))
    f;
  !bytes

let check_alloc ~loc ~cap_bytes bytes =
  if bytes > cap_bytes then
    raise_trap
      ~kind:(Alloc_limit { requested_bytes = bytes; cap_bytes })
      ~loc ~steps_executed:0

(* fprintf-style formatting with a flat queue of scalars; the format is
   recycled as long as arguments remain, as MATLAB does. *)
let render_format (fmt : string) (queue : Value.scalar list) : string =
  let b = Buffer.create 64 in
  let n = String.length fmt in
  let args = ref queue in
  let pop () =
    match !args with
    | [] -> None
    | x :: rest ->
      args := rest;
      Some x
  in
  let one_pass () =
    let i = ref 0 in
    while !i < n do
      let c = fmt.[!i] in
      if c = '\\' && !i + 1 < n then begin
        (match fmt.[!i + 1] with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | '\\' -> Buffer.add_char b '\\'
        | other ->
          Buffer.add_char b '\\';
          Buffer.add_char b other);
        i := !i + 2
      end
      else if c = '%' && !i + 1 < n then begin
        (* scan to the conversion character *)
        let j = ref (!i + 1) in
        while
          !j < n
          && not (String.contains "diufeEgGsx%" fmt.[!j])
        do
          incr j
        done;
        if !j < n && fmt.[!j] = '%' && !j = !i + 1 then Buffer.add_char b '%'
        else if !j < n then begin
          let spec = String.sub fmt !i (!j - !i + 1) in
          match pop () with
          | None -> Buffer.add_string b spec
          | Some v -> (
            match fmt.[!j] with
            | 'd' | 'i' | 'u' ->
              Buffer.add_string b (string_of_int (V.to_int v))
            | 'x' -> (
              (* honour flags/width when the spec is well-formed, but
                 always print hexadecimal *)
              try
                Buffer.add_string b
                  (Printf.sprintf
                     (Scanf.format_from_string spec "%x")
                     (V.to_int v))
              with _ -> Buffer.add_string b (Printf.sprintf "%x" (V.to_int v)))
            | 's' -> Buffer.add_string b (Format.asprintf "%a" V.pp_scalar v)
            | _ -> (
              try
                Buffer.add_string b
                  (Printf.sprintf
                     (Scanf.format_from_string spec "%f")
                     (V.to_float v))
              with _ ->
                Buffer.add_string b (Format.asprintf "%a" V.pp_scalar v)))
        end
        else Buffer.add_char b '%';
        i := !j + 1
      end
      else begin
        Buffer.add_char b c;
        incr i
      end
    done
  in
  one_pass ();
  (* MATLAB recycles the format while arguments remain. *)
  let guard = ref 0 in
  while !args <> [] && !guard < 10000 do
    incr guard;
    one_pass ()
  done;
  Buffer.contents b
