type ('s, 'o) t = {
  name : string;
  anonymous : bool;
  bandwidth : n:int -> int;
  rounds : n:int -> int;
  init : View.t -> 's;
  step : 's -> round:int -> inbox:Inbox.t -> 's * Msg.t;
  finish : 's -> inbox:Inbox.t -> 'o;
}

type 'o packed = Packed : ('s, 'o) t -> 'o packed

let pack a = Packed a

let name (Packed a) = a.name
let anonymous (Packed a) = a.anonymous
let bandwidth (Packed a) ~n = a.bandwidth ~n
let rounds (Packed a) ~n = a.rounds ~n

let bcc1 ~name ~rounds ~init ~step ~finish =
  { name; anonymous = false; bandwidth = (fun ~n:_ -> 1); rounds; init; step; finish }

(* Declaration, not a check: callers assert that the algorithm's
   broadcasts never read View.id. *)
let declare_anonymous a = { a with anonymous = true }

(* Map the final outputs of an algorithm. *)
let map_output f a =
  { name = a.name;
    anonymous = a.anonymous;
    bandwidth = a.bandwidth;
    rounds = a.rounds;
    init = a.init;
    step = a.step;
    finish = (fun s ~inbox -> f (a.finish s ~inbox)) }

(* Truncate to at most [t] rounds, deciding with whatever state has been
   reached. Used as the adversarial subject of the lower-bound
   experiments: the paper asks what ANY t-round algorithm can do, and the
   best t-round algorithms we possess are truncations of the optimal
   ones. *)
let truncate ~rounds:t a =
  { a with name = Printf.sprintf "%s[t=%d]" a.name t; rounds = (fun ~n -> min t (a.rounds ~n)) }
