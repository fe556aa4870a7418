type t = {
  sim_tr : Pipeline.Transform.t;
  sim_compiled : Pipeline.Pipesem.compiled Lazy.t;
  sim_reference : Machine.Seqsem.trace option;
  sim_instructions : int;
}

let make ?compiled ?reference ?(instructions = 200) tr =
  {
    sim_tr = tr;
    sim_compiled =
      (match compiled with
      | Some c -> lazy c
      | None -> lazy (Pipeline.Pipesem.compile tr));
    sim_reference = reference;
    sim_instructions = instructions;
  }

let transform t = t.sim_tr
let instructions t = t.sim_instructions
let compiled t = Lazy.force t.sim_compiled

let stop t = function Some n -> n | None -> t.sim_instructions

let run ?ext ?callbacks ?inject ?cancel ?stop_after t =
  Pipeline.Pipesem.run_compiled ?ext ?callbacks ?inject ?cancel
    ~stop_after:(stop t stop_after) (compiled t)

let run_interpreted ?ext ?callbacks ?stop_after t =
  Pipeline.Pipesem.run_reference ?ext ?callbacks
    ~stop_after:(stop t stop_after) t.sim_tr

let attribute ?ext ?stop_after t =
  Pipeline.Attribution.run ?ext ~compiled:(compiled t)
    ~stop_after:(stop t stop_after) t.sim_tr

let trace_vcd ~path ?ext ?registers ?signals ?stop_after t =
  Pipeline.Tracer.write ~path ?ext ?registers ?signals
    ~compiled:(compiled t) ~stop_after:(stop t stop_after) t.sim_tr

let reference t = t.sim_reference

let verify ?ext ?max_instructions ?inject ?cancel t =
  Proof_engine.Consistency.check ?ext
    ~max_instructions:(stop t max_instructions)
    ?reference:t.sim_reference ~compiled:(compiled t) ?inject ?cancel t.sim_tr

let stats_row ?label t (s : Pipeline.Pipesem.stats) =
  let label = match label with Some l -> l | None -> "sim" in
  Stats.of_stats ~label
    ~n_stages:t.sim_tr.Pipeline.Transform.base.Machine.Spec.n_stages s
