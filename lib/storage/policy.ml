type t = {
  touch : Block.t -> bool;
  insert : Block.t -> Block.t option;
  insert_cold : Block.t -> Block.t option;
  remove : Block.t -> bool;
  contains : Block.t -> bool;
  size : unit -> int;
  clear : unit -> unit;
  iter : (Block.t -> unit) -> unit;
  fast : Flat_lru.t option;
}

type factory = capacity:int -> t

let check_capacity c = if c < 1 then invalid_arg "cache capacity < 1"
