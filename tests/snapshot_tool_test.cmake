# CTest script: `uniclean_snapshot write` refuses a threshold that is not a
# number, as unicleand does: the error and the usage on stderr, exit 2, and
# no snapshot written. The checks fail before any input file is read.
#
# Inputs (passed with -D):
#   TOOL     — path to the uniclean_snapshot executable
#   WORK_DIR — scratch directory for the snapshot it must not write

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(bad "--eta;abc;--eta expects a number, got 'abc'"
            "--delta1;7x;--delta1 expects an integer, got '7x'"
            "--delta2;0.8.1;--delta2 expects a number, got '0.8.1'")
  list(GET bad 0 flag)
  list(GET bad 1 value)
  list(GET bad 2 expected)
  execute_process(
    COMMAND "${TOOL}" write "${WORK_DIR}/bad.ucsnap"
      --master m.csv --rules r.txt --schema d.csv ${flag} ${value}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
  )
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag} ${value}: expected exit 2, got ${rc}:\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag} ${value}: stderr lacks \"${expected}\":\n${err}")
  endif()
  string(FIND "${err}" "usage: uniclean_snapshot" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag} ${value}: stderr lacks the usage:\n${err}")
  endif()
  if(EXISTS "${WORK_DIR}/bad.ucsnap")
    message(FATAL_ERROR "${flag} ${value}: a snapshot was written")
  endif()
endforeach()
