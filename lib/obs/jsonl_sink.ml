(* One JSON object per event, one event per line.  All writes go through
   a mutex and a single buffered channel, so lines from different
   domains never interleave. *)

module Json = Sweep_util.Json

(* The line layout readers depend on (see Sweep_analyze.Trace_reader):
   ns, then the stable constructor tag, then the display name and
   category, then the payload fields. *)
let render_line ~ns ev =
  let args = Event.json_args ev in
  Printf.sprintf "{\"ns\":%.17g,\"ev\":\"%s\",\"name\":%s,\"cat\":\"%s\"%s%s}"
    ns (Event.tag ev)
    (Json.escape_string (Event.name ev))
    (Event.category_name (Event.category ev))
    (if args = "" then "" else ",")
    args

let create path =
  let lock = Mutex.create () in
  let oc = open_out path in
  let closed = ref false in
  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let write ~ns ev =
    with_lock (fun () ->
        if not !closed then begin
          output_string oc (render_line ~ns ev);
          output_char oc '\n';
          (* Failure, fault and completion lines are exactly the tail a
             post-mortem needs, and exactly what buffered IO loses when
             the process dies — push them through to the OS immediately.
             Job_done is included so a supervisor that respawns this
             process never re-reads a torn final record as valid. *)
          let crash_critical =
            match ev with
            | Event.Job_failed _ | Event.Job_done _ -> true
            | ev -> Event.category ev = Event.Fault
          in
          if crash_critical then Sweep_util.Durable.sync oc
        end)
  in
  Sink.make write
    ~flush:(fun () -> with_lock (fun () -> if not !closed then flush oc))
    ~close:(fun () ->
      with_lock (fun () ->
          if not !closed then begin
            closed := true;
            close_out oc
          end))
