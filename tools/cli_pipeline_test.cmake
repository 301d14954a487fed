# End-to-end CLI smoke: collect (analytic) -> fit -> predict ->
# surface -> recommend, in a scratch directory.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_pipeline_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run)
    execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${work}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
    endif()
endfunction()

run(${WCNN} collect --out s.csv --samples 40 --analytic --seed 3)
run(${WCNN} fit --data s.csv --out m.bundle --units 10 --cv --tag smoke)
run(${WCNN} predict --model m.bundle --config 560,10,16,18)

# A malformed --config field is an error that names the field.
execute_process(COMMAND ${WCNN} predict --model m.bundle --config 560,x,10,16
                WORKING_DIRECTORY ${work}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "--config field 2 expects a number")
    message(FATAL_ERROR "predict accepted --config 560,x,10,16 (${rc}): ${err}")
endif()
run(${WCNN} surface --model m.bundle --indicator 1)
run(${WCNN} recommend --model m.bundle --data s.csv --top 3)

# Streaming predict: two config lines in, two CSV prediction lines out.
file(WRITE ${work}/configs.txt "560,10,16,18\n560,4,16,14\n")
execute_process(COMMAND ${WCNN} predict --model m.bundle --stdin
                INPUT_FILE ${work}/configs.txt
                WORKING_DIRECTORY ${work}
                RESULT_VARIABLE rc OUTPUT_VARIABLE stream_out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "predict --stdin failed (${rc}): ${err}")
endif()
string(REGEX MATCHALL "\n" stream_newlines "${stream_out}")
list(LENGTH stream_newlines stream_lines)
if(NOT stream_lines EQUAL 2)
    message(FATAL_ERROR
            "predict --stdin: expected 2 lines, got ${stream_lines}:\n"
            "${stream_out}")
endif()

# Serving smoke: a bundle-loading server answers and drains cleanly.
run(${WCNN} bench-serve --model m.bundle --clients 2 --requests 20
    --pipeline 4 --max-batch 16)
message(STATUS "cli pipeline OK")
