let () =
  Alcotest.run "roload"
    [
      (* first: it forks the test process, which no spawned domain may
         precede *)
      ("chaos-kill", Test_chaos.durability_suite);
      ("bits", Test_bits.suite);
      ("isa", Test_isa.suite);
      ("mem", Test_mem.suite);
      ("ir", Test_ir.suite);
      ("cache", Test_cache.suite);
      ("machine", Test_machine.suite);
      ("asm", Test_asm.suite);
      ("link", Test_link.suite);
      ("kernel", Test_kernel.suite);
      ("syscall_errors", Test_syscall_errors.suite);
      ("server", Test_server.suite);
      ("system", Test_system.suite);
      ("engine", Test_engine.suite);
      ("snapshot", Test_snapshot.suite);
      ("front", Test_front.suite);
      ("passes", Test_passes.suite);
      ("codegen", Test_codegen.suite);
      ("toolchain", Test_toolchain.suite);
      ("analysis", Test_analysis.suite);
      ("prove", Test_prove.suite);
      ("hw", Test_hw.suite);
      ("security", Test_security.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("fuzz", Test_fuzz.suite);
      ("obs", Test_obs.suite);
      ("chaos", Test_chaos.suite);
    ]
