(** Order statistics of a run's samples. *)

type t = { median : float; q1 : float; q3 : float; min : float; max : float; n : int }

val of_list : float list -> t
(** Quartiles by the exclusive method of Python's
    [statistics.quantiles(xs, n=4)], so the bench's IQR matches the one
    computed over its printed results; a single sample has IQR 0.
    @raise Invalid_argument on an empty list. *)

val iqr : t -> float
(** [q3 - q1]. *)

val spread : t -> float
(** IQR as a share of the median (0 when the median is 0). *)
