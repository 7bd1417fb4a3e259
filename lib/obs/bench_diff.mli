(** Bench regression gate ([mascc bench diff OLD.json NEW.json]).

    Cycle tables ([table2] baseline/proposed cycles, [fig3] speedup
    matrix) must be bit-identical — the simulator is deterministic and
    telemetry promises zero cost when off. A table present in OLD and
    missing from NEW fails; one absent from OLD is skipped. Every other
    section is ignored, so any bench schema version (v2+) can be the
    baseline. *)

type status = Pass | Fail | Warn | Skip

type check = { c_name : string; c_status : status; c_msg : string }

type verdict = {
  v_ok : bool;
  v_schema_old : int;
  v_schema_new : int;
  v_checks : check list;
}

(** Parse both documents and compare; [Error] on unparseable input. *)
val diff : old_text:string -> new_text:string -> (verdict, string) result

val render_text : verdict -> string
val render_json : verdict -> string
