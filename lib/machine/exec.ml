module I = Sweep_isa.Instr
module D = Sweep_isa.Decoded
module E = Sweep_energy.Energy_config

(* Per-step cost accumulator.  All-float mutable records are flat
   (unboxed fields), so charging into one allocates nothing — unlike
   returning a fresh [Cost.t] per step.  The machine owns one [Acc.t];
   [step] resets it, the memory ops charge extra cost into it, and the
   caller reads the finalized totals after the call.

   The record also carries the simulation clock ([now]) and the
   finalization constants of the energy model: keeping every float the
   hot path touches inside one flat record means no float ever crosses a
   function boundary per step — the non-flambda compiler would box it
   there, and the cycle loop must stay allocation-free. *)
module Acc = struct
  type t = {
    mutable ns : float;
    mutable joules : float;
    mutable now : float;
        (** Simulation time at the start of the step; the driver writes
            it before calling [step], the memory ops read it. *)
    mutable cycle_ns : float;     (* finalization constants, set once *)
    mutable e_cycle : float;
    mutable e_stall_cycle : float;
  }

  let create () =
    {
      ns = 0.0;
      joules = 0.0;
      now = 0.0;
      cycle_ns = 0.0;
      e_cycle = 0.0;
      e_stall_cycle = 0.0;
    }

  let set_rates t (e : E.t) =
    t.cycle_ns <- E.cycle_ns e;
    t.e_cycle <- e.E.e_cycle;
    t.e_stall_cycle <- e.E.e_stall_cycle

  let charge t ~ns ~joules =
    t.ns <- t.ns +. ns;
    t.joules <- t.joules +. joules
end

(* The ops read the current simulation time from their machine's
   [Acc.now] rather than taking a float parameter — see above. *)
type mem_ops = {
  load : int -> int;
  store : int -> int -> unit;
  clwb : int -> unit;
  fence : unit -> unit;
  region_end : unit -> unit;
}

let nop_region_ops ops =
  {
    ops with
    clwb = (fun _ -> ());
    fence = (fun () -> ());
    region_end = (fun () -> ());
  }

(* Placeholder for two-phase machine construction: a machine record is
   created with [null_ops], then its real ops (closures over the
   machine) are patched in before anything steps. *)
let null_ops =
  {
    load = (fun _ -> 0);
    store = (fun _ _ -> ());
    clwb = (fun _ -> ());
    fence = (fun () -> ());
    region_end = (fun () -> ());
  }

(* Finalization shared by both interpreters.  [acc] holds the extra
   (memory-path) cost; add the 1-cycle base and the constant-active-
   power model: every nanosecond the core spends on an instruction —
   including memory stalls — burns stall power on top of the per-event
   energies the memory ops charged.  The grouping reproduces the old
   [base ++ { extra with joules = extra.joules +. time_power extra.ns }]
   bit-for-bit. *)
let[@inline] finalize (acc : Acc.t) =
  let extra_ns = acc.Acc.ns in
  if extra_ns = 0.0 then begin
    (* ALU/branch case: the stall term is exactly +0.0 (0/c*e with
       c > 0, e >= 0) and j +. 0.0 = j for the non-negative charge sum,
       so the general formula below reduces to this — minus the float
       division per instruction. *)
    acc.Acc.ns <- acc.Acc.cycle_ns;
    acc.Acc.joules <- acc.Acc.e_cycle +. acc.Acc.joules
  end
  else begin
    acc.Acc.ns <- acc.Acc.cycle_ns +. extra_ns;
    acc.Acc.joules <-
      acc.Acc.e_cycle
      +. (acc.Acc.joules
         +. (extra_ns /. acc.Acc.cycle_ns *. acc.Acc.e_stall_cycle))
  end

let step (cpu : Cpu.t) (dec : D.t) stats ops (acc : Acc.t) =
  if cpu.halted then begin
    acc.Acc.ns <- 0.0;
    acc.Acc.joules <- 0.0
  end
  else begin
    acc.Acc.ns <- 0.0;
    acc.Acc.joules <- 0.0;
    let regs = cpu.regs in
    let pc = cpu.pc in
    (* Operand indices were validated by Decoded.compile. *)
    let op = Array.unsafe_get dec.D.op pc in
    let x = Array.unsafe_get dec.D.x pc in
    let y = Array.unsafe_get dec.D.y pc in
    let z = Array.unsafe_get dec.D.z pc in
    (* The Mstats counters are open-coded here and below: under the dev
       profile's [-opaque], [Mstats.note_instr] would be a call per
       instruction. *)
    stats.Mstats.instructions <- stats.Mstats.instructions + 1;
    stats.Mstats.cur_region_instrs <- stats.Mstats.cur_region_instrs + 1;
    let next = pc + 1 in
    (* Register accesses are unsafe for the same reason as the operand
       reads above: every register operand was checked against
       [Reg.count] by Decoded.compile, and [cpu.regs] always has exactly
       [Reg.count] slots, so the bounds checks would never fire. *)
    (* Opcode numbering from Sweep_isa.Decoded: 0-9 Bin, 10-19 Bini
       (Add Sub Mul Div Rem And Or Xor Shl Shr), 20-25 Set, 26-31 Br
       (Eq Ne Lt Le Gt Ge), then the op_* singletons in order. *)
    (match op with
    (* Bin *)
    | 0 ->
      Array.unsafe_set regs x (Array.unsafe_get regs y + Array.unsafe_get regs z);
      cpu.pc <- next
    | 1 ->
      Array.unsafe_set regs x (Array.unsafe_get regs y - Array.unsafe_get regs z);
      cpu.pc <- next
    | 2 ->
      Array.unsafe_set regs x (Array.unsafe_get regs y * Array.unsafe_get regs z);
      cpu.pc <- next
    | 3 ->
      let b = Array.unsafe_get regs z in
      Array.unsafe_set regs x (if b = 0 then 0 else Array.unsafe_get regs y / b);
      cpu.pc <- next
    | 4 ->
      let b = Array.unsafe_get regs z in
      Array.unsafe_set regs x (if b = 0 then 0 else Array.unsafe_get regs y mod b);
      cpu.pc <- next
    | 5 ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y land Array.unsafe_get regs z);
      cpu.pc <- next
    | 6 ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y lor Array.unsafe_get regs z);
      cpu.pc <- next
    | 7 ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y lxor Array.unsafe_get regs z);
      cpu.pc <- next
    | 8 ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y lsl (Array.unsafe_get regs z land 63));
      cpu.pc <- next
    | 9 ->
      Array.unsafe_set regs x
        (Array.unsafe_get regs y lsr (Array.unsafe_get regs z land 63));
      cpu.pc <- next
    (* Bini: z is the immediate *)
    | 10 -> Array.unsafe_set regs x (Array.unsafe_get regs y + z); cpu.pc <- next
    | 11 -> Array.unsafe_set regs x (Array.unsafe_get regs y - z); cpu.pc <- next
    | 12 -> Array.unsafe_set regs x (Array.unsafe_get regs y * z); cpu.pc <- next
    | 13 ->
      Array.unsafe_set regs x (if z = 0 then 0 else Array.unsafe_get regs y / z);
      cpu.pc <- next
    | 14 ->
      Array.unsafe_set regs x
        (if z = 0 then 0 else Array.unsafe_get regs y mod z);
      cpu.pc <- next
    | 15 -> Array.unsafe_set regs x (Array.unsafe_get regs y land z); cpu.pc <- next
    | 16 -> Array.unsafe_set regs x (Array.unsafe_get regs y lor z); cpu.pc <- next
    | 17 -> Array.unsafe_set regs x (Array.unsafe_get regs y lxor z); cpu.pc <- next
    | 18 ->
      Array.unsafe_set regs x (Array.unsafe_get regs y lsl (z land 63));
      cpu.pc <- next
    | 19 ->
      Array.unsafe_set regs x (Array.unsafe_get regs y lsr (z land 63));
      cpu.pc <- next
    (* Set *)
    | 20 ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y = Array.unsafe_get regs z then 1 else 0);
      cpu.pc <- next
    | 21 ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y <> Array.unsafe_get regs z then 1 else 0);
      cpu.pc <- next
    | 22 ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y < Array.unsafe_get regs z then 1 else 0);
      cpu.pc <- next
    | 23 ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y <= Array.unsafe_get regs z then 1 else 0);
      cpu.pc <- next
    | 24 ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y > Array.unsafe_get regs z then 1 else 0);
      cpu.pc <- next
    | 25 ->
      Array.unsafe_set regs x
        (if Array.unsafe_get regs y >= Array.unsafe_get regs z then 1 else 0);
      cpu.pc <- next
    (* Br: x,y compared; z is the target *)
    | 26 ->
      cpu.pc <-
        (if Array.unsafe_get regs x = Array.unsafe_get regs y then z else next)
    | 27 ->
      cpu.pc <-
        (if Array.unsafe_get regs x <> Array.unsafe_get regs y then z else next)
    | 28 ->
      cpu.pc <-
        (if Array.unsafe_get regs x < Array.unsafe_get regs y then z else next)
    | 29 ->
      cpu.pc <-
        (if Array.unsafe_get regs x <= Array.unsafe_get regs y then z else next)
    | 30 ->
      cpu.pc <-
        (if Array.unsafe_get regs x > Array.unsafe_get regs y then z else next)
    | 31 ->
      cpu.pc <-
        (if Array.unsafe_get regs x >= Array.unsafe_get regs y then z else next)
    (* 32 Movi / 33 Movl *)
    | 32 | 33 -> Array.unsafe_set regs x z; cpu.pc <- next
    (* 34 Mov *)
    | 34 -> Array.unsafe_set regs x (Array.unsafe_get regs y); cpu.pc <- next
    (* 35 Load / 36 Load_abs *)
    | 35 ->
      stats.Mstats.loads <- stats.Mstats.loads + 1;
      Array.unsafe_set regs x (ops.load (Array.unsafe_get regs y + z));
      cpu.pc <- next
    | 36 ->
      stats.Mstats.loads <- stats.Mstats.loads + 1;
      Array.unsafe_set regs x (ops.load z);
      cpu.pc <- next
    (* 37 Store / 38 Store_abs *)
    | 37 ->
      stats.Mstats.stores <- stats.Mstats.stores + 1;
      stats.Mstats.cur_region_stores <- stats.Mstats.cur_region_stores + 1;
      ops.store (Array.unsafe_get regs y + z) (Array.unsafe_get regs x);
      cpu.pc <- next
    | 38 ->
      stats.Mstats.stores <- stats.Mstats.stores + 1;
      stats.Mstats.cur_region_stores <- stats.Mstats.cur_region_stores + 1;
      ops.store z (Array.unsafe_get regs x);
      cpu.pc <- next
    (* 39 Jmp / 40 Jmp_reg / 41 Call *)
    | 39 -> cpu.pc <- z
    | 40 -> cpu.pc <- Array.unsafe_get regs x
    | 41 ->
      Array.unsafe_set regs Sweep_isa.Reg.link next;
      cpu.pc <- z
    (* 42 Clwb / 43 Clwb_abs *)
    | 42 ->
      ops.clwb (Array.unsafe_get regs x + z);
      cpu.pc <- next
    | 43 ->
      ops.clwb z;
      cpu.pc <- next
    (* 44 Fence *)
    | 44 ->
      ops.fence ();
      cpu.pc <- next
    (* 45 Region_end *)
    | 45 ->
      ops.region_end ();
      Mstats.note_region_end stats;
      cpu.pc <- next
    (* 46 Nop *)
    | 46 -> cpu.pc <- next
    (* 47 Halt *)
    | _ ->
      cpu.halted <- true;
      if Sweep_obs.Sink.on () then
        Sweep_obs.Sink.emit ~ns:acc.Acc.now Sweep_obs.Event.Halt);
    finalize acc
  end

(* The legacy variant-matching interpreter, kept as the semantic
   reference: it reads the undecoded [Program.t] directly, so the
   differential suite can pin the decoded dispatch above against it
   ([Config.reference_interp] switches a machine over wholesale). *)
let step_reference (cpu : Cpu.t) (prog : Sweep_isa.Program.t) stats ops
    (acc : Acc.t) =
  if cpu.halted then begin
    acc.Acc.ns <- 0.0;
    acc.Acc.joules <- 0.0
  end
  else begin
    acc.Acc.ns <- 0.0;
    acc.Acc.joules <- 0.0;
    let regs = cpu.regs in
    let ins = prog.code.(cpu.pc) in
    Mstats.note_instr stats;
    let next = cpu.pc + 1 in
    (match ins with
    | I.Movi (rd, n) ->
      regs.(rd) <- n;
      cpu.pc <- next
    | I.Movl (rd, idx) ->
      regs.(rd) <- idx;
      cpu.pc <- next
    | I.Mov (rd, rs) ->
      regs.(rd) <- regs.(rs);
      cpu.pc <- next
    | I.Bin (op, rd, a, b) ->
      regs.(rd) <- I.eval_binop op regs.(a) regs.(b);
      cpu.pc <- next
    | I.Bini (op, rd, a, n) ->
      regs.(rd) <- I.eval_binop op regs.(a) n;
      cpu.pc <- next
    | I.Set (c, rd, a, b) ->
      regs.(rd) <- (if I.eval_cond c regs.(a) regs.(b) then 1 else 0);
      cpu.pc <- next
    | I.Load (rd, rs, off) ->
      Mstats.note_load stats;
      regs.(rd) <- ops.load (regs.(rs) + off);
      cpu.pc <- next
    | I.Load_abs (rd, addr) ->
      Mstats.note_load stats;
      regs.(rd) <- ops.load addr;
      cpu.pc <- next
    | I.Store (rv, rs, off) ->
      Mstats.note_store stats;
      ops.store (regs.(rs) + off) regs.(rv);
      cpu.pc <- next
    | I.Store_abs (rv, addr) ->
      Mstats.note_store stats;
      ops.store addr regs.(rv);
      cpu.pc <- next
    | I.Br (c, a, b, target) ->
      cpu.pc <- (if I.eval_cond c regs.(a) regs.(b) then target else next)
    | I.Jmp target -> cpu.pc <- target
    | I.Jmp_reg r -> cpu.pc <- regs.(r)
    | I.Call target ->
      regs.(Sweep_isa.Reg.link) <- next;
      cpu.pc <- target
    | I.Clwb (rs, off) ->
      ops.clwb (regs.(rs) + off);
      cpu.pc <- next
    | I.Clwb_abs addr ->
      ops.clwb addr;
      cpu.pc <- next
    | I.Fence ->
      ops.fence ();
      cpu.pc <- next
    | I.Region_end ->
      ops.region_end ();
      Mstats.note_region_end stats;
      cpu.pc <- next
    | I.Nop -> cpu.pc <- next
    | I.Halt ->
      cpu.halted <- true;
      if Sweep_obs.Sink.on () then
        Sweep_obs.Sink.emit ~ns:acc.Acc.now Sweep_obs.Event.Halt);
    finalize acc
  end
