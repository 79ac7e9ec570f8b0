(* [Sweep_util.Json] under its old name, which perfbench/ and this
   library still use. *)
include Sweep_util.Json
