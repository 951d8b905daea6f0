module Ufind = Bcclb_ufind.Ufind

type t = Ufind.t

let create = Ufind.create
let union = Ufind.union
let find = Ufind.find
let same = Ufind.same_set
let components = Ufind.components
let labels = Ufind.labels
