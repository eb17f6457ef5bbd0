(** The repo's one JSON implementation: a value type, a strict
    parser and a compact printer.

    Every machine-readable output is built as a {!t} and printed with
    {!to_string}: the compile-service protocol ({!Protocol}), the
    [--json] modes of [saraccc] ({!Commands}), the [BENCH_*.json]
    files and [bench json]. The repo deliberately has no JSON
    dependency. Numbers are [float]s — every quantity these outputs
    carry (lengths, counters, milliseconds, ratios) fits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** RFC 8259: numbers follow the JSON grammar (no [+1], [01] or [1.]),
    strings admit no raw control characters, [\u] escapes take exactly
    four hex digits and are decoded to UTF-8 with surrogate pairs
    combined. Nesting deeper than 512 levels is rejected.
    @raise Parse_error on malformed input (a lone surrogate included)
    or trailing garbage. *)

val to_string : t -> string
(** Compact (no whitespace), fully escaped. Integral numbers below
    1e15 in magnitude print without a fraction, other finite numbers
    as the shortest of [%.15g]/[%.16g]/[%.17g] that reads back
    exactly, and non-finite ones as [null]; so [parse] ∘ [to_string]
    is the identity on values whose numbers are finite. *)

(** {1 Builders} *)

val num : float -> t
val int : int -> t
val str : string -> t

(** {1 Accessors} — all total; missing members read as [Null]. *)

val member : string -> t -> t
val to_str : ?default:string -> t -> string
val to_int : ?default:int -> t -> int
val to_float : ?default:float -> t -> float
val to_bool : ?default:bool -> t -> bool
val to_list : t -> t list
(** [Null] and non-arrays read as []. *)
