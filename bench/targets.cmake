# One binary per paper table/figure, plus ablations and Google-
# Benchmark microbenchmarks. Included from the top-level CMakeLists
# (not add_subdirectory) so ${CMAKE_BINARY_DIR}/bench holds ONLY the
# bench executables: the canonical run command is
#     for b in build/bench/*; do $b; done
# and must not trip over CMake bookkeeping files.

function(mct_add_bench name)
    add_executable(${name} ${CMAKE_CURRENT_LIST_DIR}/${name}.cc)
    target_link_libraries(${name} PRIVATE mct_core benchmark::benchmark)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

mct_add_bench(bench_table1_tradeoffs)
mct_add_bench(bench_table2_config_space)
mct_add_bench(bench_table4_lifetime_constraints)
mct_add_bench(bench_fig1_ideal_configs)
mct_add_bench(bench_table6_effective_features)
mct_add_bench(bench_table7_fig2_models)
mct_add_bench(bench_fig3_wear_quota)
mct_add_bench(bench_fig4_feature_selection)
mct_add_bench(bench_fig6_phase_detection)
mct_add_bench(bench_fig7_mct_main)
mct_add_bench(bench_fig8_lifetime_sensitivity)
mct_add_bench(bench_fig9_sampling_overhead)
mct_add_bench(bench_fig10_multiprogram)
mct_add_bench(bench_ablation_mct)
mct_add_bench(bench_micro_perf)
mct_add_bench(bench_faults)

# --profile-out writes an mct-host-v1 document that mct_report renders;
# --manifest-out lists it with a checksum that aggregate re-verifies,
# so a profile changed after the run is an integrity error (exit 3).
# Both name the bench after its binary.
add_test(NAME bench_harness_profile COMMAND sh -c "\
d=${CMAKE_BINARY_DIR}/bench_harness_profile; mkdir -p $d && cd $d || exit 1; \
$<TARGET_FILE:bench_table2_config_space> --profile-out P.json \
    --manifest-out M.json >/dev/null || exit 2; \
grep -q '\"schema\":\"mct-host-v1\"' P.json || exit 3; \
grep -q '\"app\":\"bench_table2_config_space\"' M.json || exit 7; \
grep -q '\"app\":\"bench_table2_config_space\"' P.json || exit 8; \
$<TARGET_FILE:mct_report> show --host P.json | grep -q '^host telemetry' || exit 4; \
grep -q '\"kind\":\"host\",\"schema\":\"mct-host-v1\",\"path\":\"P.json\"' M.json || exit 5; \
$<TARGET_FILE:mct_report> aggregate M.json --with-host >/dev/null || exit 6; \
echo >> P.json; \
$<TARGET_FILE:mct_report> aggregate M.json --with-host >/dev/null 2>&1; \
[ $? -eq 3 ]")
