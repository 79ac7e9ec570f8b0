let () =
  Alcotest.run "sweepcache"
    [
      ("util", T_util.suite);
      ("isa", T_isa.suite);
      ("lang", T_lang.suite);
      ("compiler", T_compiler.suite);
      ("regions", T_regions.suite);
      ("regalloc", T_regalloc.suite);
      ("mem", T_mem.suite);
      ("energy", T_energy.suite);
      ("machine", T_machine.suite);
      ("core", T_core.suite);
      ("baselines", T_baselines.suite);
      ("equiv", T_equiv.suite);
      ("alloc", T_alloc.suite);
      ("sim", T_sim.suite);
      ("workloads", T_workloads.suite);
      ("exp", T_exp.suite);
      ("obs", T_obs.suite);
      ("analyze", T_analyze.suite);
      ("check", T_check.suite);
      ("tune", T_tune.suite);
      ("telemetry", T_telemetry.suite);
      ("super", T_super.suite);
      ("cli", T_cli.suite);
      ("profile", T_profile.suite);
      ("fleet", T_fleet.suite);
      ("reports", T_reports.suite);
    ]
