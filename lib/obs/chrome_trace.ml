(* Chrome trace-event / Perfetto JSON sink.

   Track layout (the "one coherent timeline" of the paper's §6.3 story):
   - pid 0 "simulation"
       tid 0 "CPU"           region begin/end spans, stalls, miss markers
       tid 1 "power"         off spans (power-down → reboot), backup/restore
       tid 2+i "buffer i"    fill / flush / drain spans per persist buffer
       counter "capacitor V" the voltage trajectory
   - pid 1 "executor"
       one tid per worker domain, job spans

   Timestamps arrive in (simulated or wall) nanoseconds and are written
   in microseconds with 3 decimals, preserving ns resolution.  Events
   may be emitted out of timestamp order (phase spans are scheduled into
   the future); viewers sort on load.  A mutex serialises writes, and
   the JSON framing is completed by [close]. *)

module Json = Sweep_util.Json

let sim_pid = 0
let exec_pid = 1
let cpu_tid = 0
let power_tid = 1
let buf_tid buf = 2 + buf
let tune_tid = 0 (* executor process: worker tids are domain ids >= 1 *)
let sup_tid = -1 (* executor process: supervisor track (parent only) *)

type state = {
  lock : Mutex.t;
  oc : out_channel;
  named : (int * int, unit) Hashtbl.t; (* (pid, tid) with thread_name sent *)
  mutable first : bool;
  mutable closed : bool;
}

let record st line =
  if st.first then st.first <- false else output_string st.oc ",\n";
  output_string st.oc line

let name_thread st ~pid ~tid name =
  if not (Hashtbl.mem st.named (pid, tid)) then begin
    Hashtbl.replace st.named (pid, tid) ();
    record st
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
          \"args\":{\"name\":%s}}"
         pid tid (Json.escape_string name))
  end

let us ns = ns /. 1000.0

let args_field ev =
  match Event.json_args ev with
  | "" -> ""
  | fields -> Printf.sprintf ",\"args\":{%s}" fields

let span st ~tid ~name ~cat ~start_ns ~dur_ns ev =
  record st
    (Printf.sprintf
       "{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
        \"pid\":%d,\"tid\":%d%s}"
       (Json.escape_string name) cat (us start_ns)
       (us (max 0.0 dur_ns))
       sim_pid tid (args_field ev))

let mark st ?(pid = sim_pid) ~tid ~ns ev =
  record st
    (Printf.sprintf
       "{\"name\":%s,\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\
        \"pid\":%d,\"tid\":%d%s}"
       (Json.escape_string (Event.name ev))
       (Event.category_name (Event.category ev))
       (us ns) pid tid (args_field ev))

let begin_end st ~pid ~tid ~ns ~ph ev =
  record st
    (Printf.sprintf
       "{\"name\":%s,\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%d,\
        \"tid\":%d%s}"
       (Json.escape_string (Event.name ev))
       (Event.category_name (Event.category ev))
       ph (us ns) pid tid (args_field ev))

let counter st ~ns ~name ~series value =
  record st
    (Printf.sprintf
       "{\"name\":%s,\"cat\":\"power\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":%d,\
        \"args\":{\"%s\":%.4f}}"
       (Json.escape_string name) (us ns) sim_pid series value)

let write st ~ns ev =
  if not st.closed then begin
    let open Event in
    match ev with
    | Region_begin _ ->
      name_thread st ~pid:sim_pid ~tid:cpu_tid "CPU";
      begin_end st ~pid:sim_pid ~tid:cpu_tid ~ns ~ph:'B' ev
    | Region_end _ -> begin_end st ~pid:sim_pid ~tid:cpu_tid ~ns ~ph:'E' ev
    | Buf_phase { buf; phase; start_ns; end_ns; seq = _ } ->
      name_thread st ~pid:sim_pid ~tid:(buf_tid buf)
        (Printf.sprintf "persist buffer %d" buf);
      span st ~tid:(buf_tid buf) ~name:(Event.name ev)
        ~cat:(Printf.sprintf "buffer,phase%d" (Event.phase_index phase))
        ~start_ns ~dur_ns:(end_ns -. start_ns) ev
    | Buf_wait { ns = dur; _ } ->
      span st ~tid:cpu_tid ~name:(Event.name ev) ~cat:"buffer"
        ~start_ns:ns ~dur_ns:dur ev
    | Waw_stall { ns = dur; _ } ->
      span st ~tid:cpu_tid ~name:(Event.name ev) ~cat:"buffer" ~start_ns:ns
        ~dur_ns:dur ev
    | Buffer_search _ | Buffer_bypass | Cache_miss _ | Cache_writeback _
    | Halt | Heartbeat _ | Dropped _ ->
      mark st ~tid:cpu_tid ~ns ev
    | Power_down { volts } ->
      name_thread st ~pid:sim_pid ~tid:power_tid "power";
      counter st ~ns ~name:"capacitor V" ~series:"V" volts;
      begin_end st ~pid:sim_pid ~tid:power_tid ~ns ~ph:'B'
        (Mark { name = "off"; cat = Power })
    | Reboot _ ->
      name_thread st ~pid:sim_pid ~tid:power_tid "power";
      begin_end st ~pid:sim_pid ~tid:power_tid ~ns ~ph:'E'
        (Mark { name = "off"; cat = Power });
      mark st ~tid:power_tid ~ns ev
    | Death { volts } ->
      name_thread st ~pid:sim_pid ~tid:power_tid "power";
      counter st ~ns ~name:"capacitor V" ~series:"V" volts;
      mark st ~tid:power_tid ~ns ev
    | Backup _ | Backup_lines _ | Restore _ | Replay _ ->
      name_thread st ~pid:sim_pid ~tid:power_tid "power";
      mark st ~tid:power_tid ~ns ev
    | Voltage { volts } -> counter st ~ns ~name:"capacitor V" ~series:"V" volts
    | Reexec { discarded } ->
      (* Per-outage discarded work as its own counter track: the
         re-execution cost trajectory next to the voltage one. *)
      counter st ~ns ~name:"re-executed instrs" ~series:"instructions"
        (float_of_int discarded)
    | Fault_inject _ | Fault_torn _ | Fault_stuck _ ->
      (* Injected faults land on the power track next to the deaths
         they masquerade as. *)
      name_thread st ~pid:sim_pid ~tid:power_tid "power";
      mark st ~tid:power_tid ~ns ev
    | Job_start _ | Job_done _ ->
      let tid = (Domain.self () :> int) in
      name_thread st ~pid:exec_pid ~tid (Printf.sprintf "worker %d" tid);
      let ph = match ev with Job_start _ -> 'B' | _ -> 'E' in
      begin_end st ~pid:exec_pid ~tid ~ns ~ph ev
    | Job_failed _ ->
      let tid = (Domain.self () :> int) in
      name_thread st ~pid:exec_pid ~tid (Printf.sprintf "worker %d" tid);
      mark st ~pid:exec_pid ~tid ~ns ev
    | Job_retry _ | Cache_hit _ | Worker_spawn _ | Worker_dead _ ->
      (* Supervision events are emitted by the parent process only, so
         they share one "supervisor" track on the executor process. *)
      name_thread st ~pid:exec_pid ~tid:sup_tid "supervisor";
      mark st ~pid:exec_pid ~tid:sup_tid ~ns ev
    | Tune_round _ | Tune_frontier _ ->
      (* Search rounds bracket the job spans they schedule, so they live
         on their own executor-process track. *)
      name_thread st ~pid:exec_pid ~tid:tune_tid "tune";
      let ph = match ev with Tune_round _ -> 'B' | _ -> 'E' in
      begin_end st ~pid:exec_pid ~tid:tune_tid ~ns ~ph ev
    | Tune_eval _ | Tune_prune _ ->
      name_thread st ~pid:exec_pid ~tid:tune_tid "tune";
      mark st ~pid:exec_pid ~tid:tune_tid ~ns ev
    | Mark _ -> mark st ~tid:cpu_tid ~ns ev
  end

let create ?filter path =
  let st =
    {
      lock = Mutex.create ();
      oc = open_out path;
      named = Hashtbl.create 16;
      first = true;
      closed = false;
    }
  in
  output_string st.oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  record st
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\
        \"args\":{\"name\":\"simulation\"}}"
       sim_pid);
  record st
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\
        \"args\":{\"name\":\"executor\"}}"
       exec_pid);
  let with_lock f =
    Mutex.lock st.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f
  in
  let base =
    Sink.make
      (fun ~ns ev -> with_lock (fun () -> write st ~ns ev))
      ~flush:(fun () -> with_lock (fun () -> if not st.closed then flush st.oc))
      ~close:(fun () ->
        with_lock (fun () ->
            if not st.closed then begin
              st.closed <- true;
              output_string st.oc "\n]}\n";
              close_out st.oc
            end))
  in
  match filter with
  | None | Some [] -> base
  | Some cats -> Sink.filtered ~cats base
