(** Output correctness of one end-to-end execution.

    An execution counts as failed, and is never retried, when the child
    exits nonzero, writes no manifest, or its JSONL rows differ from the
    pinned digest or cell count. *)

type expect = { sha256 : string; cells : int }

val load_golden : string -> (string * expect) list
(** The pinned outputs: a JSON object mapping a key to
    [{"sha256": HEX, "cells": N}].
    @raise Failure on a missing or malformed file. *)

val results_digest : string -> string
(** SHA-256 of the directory's [<experiment-id>.jsonl] files,
    concatenated in experiment-id order. *)

val verdict :
  expect -> status:int -> results:string -> (Bcclb_harness.Json.t, string) result
(** [Ok manifest] when the child exited 0 and its results directory holds
    a manifest whose cell count, and JSONL whose digest, are the expected
    ones; [Error reason] otherwise. [status] is an exit code, or the
    negated signal that killed the child. *)
