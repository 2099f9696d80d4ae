(** Per-link wire power and repeater area, using floorplan lengths. *)

open Noc_model

type breakdown = {
  link : Ids.Link.t;
  length_mm : float;
  dynamic_mw : float;
  area_um2 : float;
}

val analyze :
  loads:float array -> Params.t -> Noc_synth.Floorplan.t -> Ids.Link.t -> breakdown
(** [loads] is {!Noc_model.Network.link_loads} of the network the
    floorplan was made for. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
