# Example hand-off smoke: characterize_3tier --fast writes
# workload_samples.csv and workload_model.bundle; tuning_advisor --fast,
# run in the same scratch directory, must load that bundle.
set(work ${CMAKE_CURRENT_BINARY_DIR}/example_handoff_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run)
    execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${work}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
    endif()
    set(out "${out}" PARENT_SCOPE)
endfunction()

run(${CHARACTERIZE} --fast)
if(NOT EXISTS ${work}/workload_model.bundle)
    message(FATAL_ERROR "characterize_3tier wrote no workload_model.bundle:\n${out}")
endif()
run(${ADVISOR} --fast)
if(NOT out MATCHES "loaded surrogate from workload_model.bundle")
    message(FATAL_ERROR "tuning_advisor did not load the bundle:\n${out}")
endif()
message(STATUS "example hand-off OK")
