(** Exact integer matrix rank and determinant by fraction-free Bareiss
    elimination over {!Bcclb_bignum.Zint}.

    Slower than the ℤ_p path but {e unconditionally} exact: used to
    cross-check rank(Mⁿ) = Bₙ and rank(Eⁿ) = r at small n, and in
    property tests against the mod-p rank. *)

val rank_int : int array array -> int

val det_int : int array array -> Bcclb_bignum.Zint.t
