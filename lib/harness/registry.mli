(** The experiment registry: E1–E15 (plus E3b) of EXPERIMENTS.md as
    {!Experiment.t} values — grids, table shapes and pure cell functions
    — in the order [experiments all] runs them. The CLI, the runner, the
    cache and the sinks all work off these declarations; adding an
    experiment means adding a value here. *)

val all : Experiment.t list

val find : string -> Experiment.t option
(** Look up by {!Experiment.t.id} (the CLI name). *)

val index_json : unit -> Json.t
(** The catalogue as a JSON array — one object per experiment with id,
    title, cells, doc, version, and (when declared) the feasible
    [n_range] both as an explicit two-element ["n_range"] array and as
    flat ["n_min"]/["n_max"] fields, so a script driving sweeps can
    pre-validate a [-n] override before starting one. What
    [experiments list --json] prints. *)

val suggest : string -> string option
(** The registered id closest to a mistyped one (case-insensitive edit
    distance), when it is close enough to be a plausible typo — the
    CLI's "did you mean" hint. *)
